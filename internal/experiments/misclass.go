package experiments

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"killi/internal/faultmodel"
	"killi/internal/gpu"
)

// MisclassRow is one workload × class-mix measurement of the DFH
// classifier against fault-map ground truth: how many lines it falsely
// disabled or falsely trusted at the end of the run, how many silent data
// corruptions escaped, and what the scrubber reclaimed along the way.
type MisclassRow struct {
	Workload     string
	Classes      string // canonical class-spec string
	ScrubKernels int
	Kernels      int // total kernels simulated (warmups + measured)

	Cycles           uint64 // measured (final) kernel only
	SDC              uint64 // measured kernel's silent-corruption count
	TransientStrikes uint64 // measured kernel's strike count
	DisabledLines    int

	Misclass gpu.Misclass // end-of-run DFH vs ground truth

	ScrubTests     uint64 // cumulative scrubber line tests
	ScrubReclaimed uint64 // cumulative lines the scrubber reclaimed
}

// falseDisableRate is the fraction of all L2 lines the classifier disabled
// although SECDED could have served them.
func (r MisclassRow) falseDisableRate() float64 {
	if r.Misclass.Lines == 0 {
		return 0
	}
	return float64(r.Misclass.FalseDisable) / float64(r.Misclass.Lines)
}

// falseTrustRate is the fraction of all L2 lines trusted at a protection
// level below their capable fault count — the SDC exposure window.
func (r MisclassRow) falseTrustRate() float64 {
	if r.Misclass.Lines == 0 {
		return 0
	}
	return float64(r.Misclass.FalseTrust) / float64(r.Misclass.Lines)
}

// RunMisclass runs one workload × scheme pair at the given voltage under
// cfg.FaultClasses — applied at every voltage, nominal included, unlike
// RunOne — and reports the misclassification measurement: the
// kernel sequence follows RunOne exactly (cfg.WarmupKernels warmups, then
// the measured kernel, scrubbing per cfg.ScrubKernels), and the final
// DFH state is compared against the ground-truth oracle. The scheme must
// expose DFH codes (killi variants do; baselines return an error). The
// result cache is never consulted: the row needs live counters.
func RunMisclass(ctx context.Context, cfg Config, workloadName, schemeName string, voltage float64) (MisclassRow, error) {
	newScheme, err := SchemeFactoryByName(schemeName)
	if err != nil {
		return MisclassRow{}, err
	}
	g, traces, err := cfg.prepare(workloadName, voltage, true)
	if err != nil {
		return MisclassRow{}, err
	}
	res, err := simulate(ctx, g, newScheme, nil, traces(), cfg.Shards, cfg.ScrubKernels, nil, 0)
	if err != nil {
		return MisclassRow{}, err
	}
	if !res.HasMisclass {
		return MisclassRow{}, fmt.Errorf("scheme %q exposes no DFH codes; misclassification needs a killi variant", schemeName)
	}
	return MisclassRow{
		Workload:         workloadName,
		Classes:          classDisplay(g.Classes),
		ScrubKernels:     cfg.ScrubKernels,
		Kernels:          cfg.WarmupKernels + 1,
		Cycles:           res.Cycles,
		SDC:              res.SDC,
		TransientStrikes: res.TransientStrikes,
		DisabledLines:    res.DisabledLines,
		Misclass:         res.Misclass,
		ScrubTests:       res.Counters.Get("killi.scrub_tests"),
		ScrubReclaimed:   res.Counters.Get("killi.scrub_reclaimed"),
	}, nil
}

// classDisplay renders a spec for report rows: canonical String(), with
// the zero spec as its grammar keyword.
func classDisplay(spec faultmodel.ClassSpec) string {
	if spec.IsZero() {
		return "persistent"
	}
	return spec.String()
}

// WriteMisclassTable renders rows as the aligned table killi-sim -misclass
// prints and EXPERIMENTS.md embeds.
func WriteMisclassTable(out io.Writer, rows []MisclassRow) error {
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tclasses\tscrub\tfaulty\tdisabled\tfalse-disable\tfalse-trust\tSDC\tstrikes\tscrub-reclaimed")
	for _, r := range rows {
		scrub := "never"
		if r.ScrubKernels > 0 {
			scrub = fmt.Sprintf("1/%dk", r.ScrubKernels)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%d (%.4f)\t%d (%.4f)\t%d\t%d\t%d\n",
			r.Workload, r.Classes, scrub,
			r.Misclass.TrueFaulty, r.Misclass.Disabled,
			r.Misclass.FalseDisable, r.falseDisableRate(),
			r.Misclass.FalseTrust, r.falseTrustRate(),
			r.SDC, r.TransientStrikes, r.ScrubReclaimed)
	}
	return tw.Flush()
}
