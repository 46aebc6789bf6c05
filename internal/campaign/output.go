package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"
)

// Output formats killi-fleet can render a Result in.
const (
	FormatTable = "table"
	FormatCSV   = "csv"
	FormatJSONL = "jsonl"
)

// Write renders the result in the named format ("table", "csv", or
// "jsonl").
func (r *Result) Write(w io.Writer, format string) error {
	switch format {
	case FormatTable:
		return r.writeTable(w)
	case FormatCSV:
		return r.writeCSV(w)
	case FormatJSONL:
		return r.WriteJSONL(w)
	default:
		return fmt.Errorf("campaign: unknown output format %q (want %s, %s, or %s)",
			format, FormatTable, FormatCSV, FormatJSONL)
	}
}

// writeTable renders the human-readable report: the yield-vs-voltage grid
// with confidence intervals and normalized-time statistics, then the Vmin
// CDF per (workload, scheme).
func (r *Result) writeTable(w io.Writer) error {
	fmt.Fprintf(w, "campaign: %d dies, seed %d, %d req/CU, pass at <= %.2fx baseline\n\n",
		r.Dies, r.Seed, r.RequestsPerCU, r.PassThreshold)

	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tscheme\tclasses\tvoltage\tyield\t95% CI\tnorm mean\tstd\tp50\tp90\tp99\tMPKI\tdisabled\tSDC\tfalse-dis\tfalse-trust")
	for _, c := range r.Cells {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.3f\t%.4f\t[%.4f, %.4f]\t%.4f\t%.4f\t%.4f\t%.4f\t%.4f\t%.2f\t%.1f\t%.2f\t%.1f\t%.1f\n",
			c.Workload, c.Scheme, c.Classes, c.Voltage, c.Yield, c.YieldLo, c.YieldHi,
			c.NormMean, c.NormStd, c.NormQ50, c.NormQ90, c.NormQ99, c.MPKIMean, c.DisabledMean,
			c.SDCMean, c.FalseDisableMean, c.FalseTrustMean)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprintln(w, "\nVmin CDF (fraction of dies deployable at or below each voltage):")
	tw = tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	header := "workload\tscheme\tclasses"
	for _, v := range r.Voltages {
		header += fmt.Sprintf("\t<=%.3f", v)
	}
	fmt.Fprintln(tw, header+"\tfail\tmean Vmin")
	for _, cdf := range r.Vmin {
		row := fmt.Sprintf("%s\t%s\t%s", cdf.Workload, cdf.Scheme, cdf.Classes)
		for _, p := range cdf.Points {
			row += fmt.Sprintf("\t%.4f", p.CumFrac)
		}
		fmt.Fprintf(tw, "%s\t%.4f\t%.4f\n", row, cdf.FailFrac, cdf.MeanVmin)
	}
	// No timing footer: every output format is a pure function of the
	// aggregates, so warm/resumed runs stay byte-identical to cold ones.
	// killi-fleet reports wall-clock on stderr instead.
	return tw.Flush()
}

// g17 renders a float at full precision (%.17g round-trips every float64
// bit pattern), the machine format the determinism tests compare.
func g17(f float64) string { return fmt.Sprintf("%.17g", f) }

// writeCSV renders the machine-readable rows. Every row leads with a
// record type: "cell" rows carry the per-grid-point aggregates, "vmin"
// rows one CDF step each, and "vmin_summary" rows the per-(workload,
// scheme) tail. Floats print at %.17g, so two byte-identical CSVs mean
// bit-identical results — the property the parallelism-invariance test
// pins.
func (r *Result) writeCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "type,workload,scheme,classes,voltage,dies,yield,yield_lo,yield_hi,norm_mean,norm_std,norm_q50,norm_q90,norm_q99,mpki_mean,mpki_std,disabled_mean,sdc_mean,false_disable_mean,false_trust_mean"); err != nil {
		return err
	}
	for _, c := range r.Cells {
		if _, err := fmt.Fprintf(w, "cell,%s,%s,%s,%s,%d,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s\n",
			c.Workload, c.Scheme, c.Classes, g17(c.Voltage), c.Dies,
			g17(c.Yield), g17(c.YieldLo), g17(c.YieldHi),
			g17(c.NormMean), g17(c.NormStd), g17(c.NormQ50), g17(c.NormQ90), g17(c.NormQ99),
			g17(c.MPKIMean), g17(c.MPKIStd), g17(c.DisabledMean),
			g17(c.SDCMean), g17(c.FalseDisableMean), g17(c.FalseTrustMean)); err != nil {
			return err
		}
	}
	for _, cdf := range r.Vmin {
		for _, p := range cdf.Points {
			if _, err := fmt.Fprintf(w, "vmin,%s,%s,%s,%s,%d,%s,,,,,,,,,,,,,\n",
				cdf.Workload, cdf.Scheme, cdf.Classes, g17(p.Voltage), p.Count, g17(p.CumFrac)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "vmin_summary,%s,%s,%s,,%d,%s,%s,,,,,,,,,,,,\n",
			cdf.Workload, cdf.Scheme, cdf.Classes, r.Dies, g17(cdf.FailFrac), g17(cdf.MeanVmin)); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSONL renders one JSON object per line: a "campaign" header, then
// every baseline, cell, and vmin CDF. Go's JSON float encoding is the
// shortest exact round-trip, so JSONL output is bit-reproducible exactly
// like the CSV.
func (r *Result) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	type headed struct {
		Type string `json:"type"`
		Data any    `json:"data"`
	}
	header := *r
	header.Baselines, header.Cells, header.Vmin = nil, nil, nil
	// Execution metadata varies by host and cache state, never with the
	// simulation; zero it so warm/resumed JSONL is byte-identical to cold.
	header.ElapsedSeconds, header.DiesPerSecond = 0, 0
	header.CachedDies, header.ResumedDies, header.CellCacheHits = 0, 0, 0
	rows := []headed{{Type: "campaign", Data: header}}
	for i := range r.Baselines {
		rows = append(rows, headed{Type: "baseline", Data: r.Baselines[i]})
	}
	for i := range r.Cells {
		rows = append(rows, headed{Type: "cell", Data: r.Cells[i]})
	}
	for i := range r.Vmin {
		rows = append(rows, headed{Type: "vmin", Data: r.Vmin[i]})
	}
	for _, row := range rows {
		if err := enc.Encode(row); err != nil {
			return err
		}
	}
	return nil
}
