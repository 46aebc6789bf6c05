// Benchmark harness: one benchmark per figure and table of the paper's
// evaluation. Each benchmark regenerates its experiment's data and, on the
// first iteration, prints the rows/series the paper reports, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation (with trace lengths sized for a laptop;
// use cmd/killi-sim -requests N for longer steady-state runs).
package killi_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"killi/internal/analytic"
	"killi/internal/bitvec"
	"killi/internal/dvfs"
	"killi/internal/experiments"
	"killi/internal/faultmodel"
	"killi/internal/gpu"
	"killi/internal/killi"
	"killi/internal/protection"
	"killi/internal/workload"
	"killi/internal/xrand"
)

// pcell adapts the calibrated fault model for the analytic tables.
func pcell(v float64) float64 {
	return faultmodel.Default().CellFailureProb(v, 1.0)
}

// BenchmarkFig1CellFailure regenerates Figure 1: per-cell failure
// probability vs normalized voltage for both silicon test kinds and two
// frequencies.
func BenchmarkFig1CellFailure(b *testing.B) {
	m := faultmodel.Default()
	var once sync.Once
	for i := 0; i < b.N; i++ {
		var rows int
		for v := 0.50; v <= 1.0001; v += 0.025 {
			_ = m.TestFailureProb(faultmodel.ReadDisturb, v, 1.0)
			_ = m.TestFailureProb(faultmodel.Writeability, v, 1.0)
			_ = m.TestFailureProb(faultmodel.ReadDisturb, v, 0.4)
			_ = m.TestFailureProb(faultmodel.Writeability, v, 0.4)
			rows++
		}
		once.Do(func() {
			b.Logf("Figure 1: %d voltage points; P_cell(0.625, 1GHz) = %.2e",
				rows, m.CellFailureProb(0.625, 1.0))
		})
	}
}

// BenchmarkFig2LineDistribution regenerates Figure 2: the 0 / 1 / ≥2
// fault-per-line split, both analytic and sampled over the paper's 2 MB L2.
func BenchmarkFig2LineDistribution(b *testing.B) {
	m := faultmodel.Default()
	var once sync.Once
	for i := 0; i < b.N; i++ {
		fm := faultmodel.NewMap(xrand.New(1), m, 32768, bitvec.LineBits, 0.575, 1.0)
		zero, one, two := fm.CountAtVoltage(0.625)
		once.Do(func() {
			d := m.LineFaultDist(bitvec.LineBits, 0.625, 1.0)
			b.Logf("Figure 2 @0.625xVDD: analytic %.2f/%.2f/%.2f %%, sampled %d/%d/%d lines",
				d.P0*100, d.P1*100, d.P2Plus*100, zero, one, two)
		})
	}
}

// sweep runs the Figure 4/5 experiment once with benchmark-scale traces.
func sweep(b *testing.B, workloads []string) []experiments.Row {
	b.Helper()
	rows, err := experiments.Run(context.Background(), experiments.Config{
		Voltage:       0.625,
		RequestsPerCU: 2500,
		Seed:          1,
		Workloads:     workloads,
		Parallelism:   -1, // all cores; results identical to serial
	})
	if err != nil {
		b.Fatal(err)
	}
	return rows
}

// benchWorkloads is the Figure 4/5 subset used at benchmark scale: two
// compute-bound and two memory-bound, including both paper-named ones.
var benchWorkloads = []string{"nekbone", "quicksilver", "xsbench", "fft"}

// BenchmarkFig4ExecutionTime regenerates Figure 4 rows: normalized kernel
// execution time per workload and scheme at 0.625×VDD.
func BenchmarkFig4ExecutionTime(b *testing.B) {
	var once sync.Once
	for i := 0; i < b.N; i++ {
		rows := sweep(b, benchWorkloads)
		once.Do(func() {
			for _, r := range rows {
				line := fmt.Sprintf("Figure 4 %-12s (%s):", r.Workload, r.Class)
				for _, n := range r.SchemeNames() {
					line += fmt.Sprintf(" %s=%.3f", n, r.Normalized[n])
				}
				b.Log(line)
			}
		})
	}
}

// BenchmarkFig5MPKI regenerates Figure 5 rows: L2 MPKI per workload and
// scheme, grouped by the compute-/memory-bound split.
func BenchmarkFig5MPKI(b *testing.B) {
	var once sync.Once
	for i := 0; i < b.N; i++ {
		rows := sweep(b, benchWorkloads)
		once.Do(func() {
			for _, r := range rows {
				line := fmt.Sprintf("Figure 5 %-12s (%s): baseline=%.1f", r.Workload, r.Class, r.BaselineMPKI)
				for _, n := range r.SchemeNames() {
					line += fmt.Sprintf(" %s=%.1f", n, r.MPKI[n])
				}
				b.Log(line)
			}
		})
	}
}

// BenchmarkFig6Coverage regenerates Figure 6: classification coverage per
// technique across voltages (§5.3 closed forms).
func BenchmarkFig6Coverage(b *testing.B) {
	vs := []float64{0.50, 0.525, 0.55, 0.575, 0.60, 0.625, 0.65, 0.675, 0.70}
	var once sync.Once
	for i := 0; i < b.N; i++ {
		curve := analytic.CoverageCurve(vs, pcell)
		once.Do(func() {
			for _, pt := range curve {
				b.Logf("Figure 6 v=%.3f: killi=%.4f flair=%.4f secded=%.4f dected=%.4f msecc=%.4f",
					pt.Voltage, pt.Killi, pt.FLAIR, pt.SECDED, pt.DECTED, pt.MSECC)
			}
		})
	}
}

// BenchmarkTable4KilliECCArea regenerates Table 4: Killi storage with
// stronger ECC codes, normalized to SECDED-per-line.
func BenchmarkTable4KilliECCArea(b *testing.B) {
	g := analytic.PaperL2()
	var once sync.Once
	for i := 0; i < b.N; i++ {
		rows := analytic.Table4(g)
		once.Do(func() {
			for _, row := range rows {
				b.Logf("Table 4 %s: 1:256=%.2f 1:128=%.2f 1:64=%.2f 1:32=%.2f 1:16=%.2f",
					row.Code, row.Ratios[256], row.Ratios[128], row.Ratios[64], row.Ratios[32], row.Ratios[16])
			}
		})
	}
}

// BenchmarkTable5AreaComparison regenerates Table 5: the cross-scheme area
// comparison.
func BenchmarkTable5AreaComparison(b *testing.B) {
	g := analytic.PaperL2()
	var once sync.Once
	for i := 0; i < b.N; i++ {
		entries := analytic.Table5(g)
		once.Do(func() {
			for _, e := range entries {
				b.Logf("Table 5 %-12s: ratio=%.2f pct-over-L2=%.2f%%", e.Scheme, e.Ratio, e.PctOverL2)
			}
		})
	}
}

// BenchmarkTable6Power regenerates Table 6: normalized power at 0.625×VDD.
func BenchmarkTable6Power(b *testing.B) {
	var once sync.Once
	for i := 0; i < b.N; i++ {
		entries := analytic.Table6(0.625)
		once.Do(func() {
			for _, e := range entries {
				b.Logf("Table 6 %-12s: power=%.1f%% (saving %.1f%%)",
					e.Scheme, e.Power, analytic.PowerSavingVsNominal(e.Power))
			}
		})
	}
}

// BenchmarkTable7LowVmin regenerates Table 7: Killi-with-OLSC versus
// MS-ECC at 0.600 and 0.575×VDD.
func BenchmarkTable7LowVmin(b *testing.B) {
	g := analytic.PaperL2()
	var once sync.Once
	for i := 0; i < b.N; i++ {
		rows := analytic.Table7(g, pcell)
		once.Do(func() {
			for _, r := range rows {
				b.Logf("Table 7 v=%.3f: capacity=%.2f%% eccratio=1:%d killi/msecc=%.2f",
					r.Voltage, r.CapacityTarget, r.ECCRatio, r.KilliOverMSECC)
			}
		})
	}
}

// BenchmarkAblationEvictionTraining quantifies the design choice DESIGN.md
// calls out: Killi trains DFH bits on evictions (§4.4), including
// ECC-cache contention evictions. Disabling that training leaves
// classification to load hits only, and the number of lines reaching a
// stable state collapses.
func BenchmarkAblationEvictionTraining(b *testing.B) {
	run := func(cfg killi.Config) gpu.Result {
		g := gpu.DefaultConfig()
		g.Voltage = 0.625
		w, err := workload.ByName("xsbench")
		if err != nil {
			b.Fatal(err)
		}
		return gpu.New(g, func() protection.Scheme { return killi.New(cfg) }).Run(w.Traces(g.CUs, 2500, 1))
	}
	trained := func(r gpu.Result) uint64 {
		return r.Counters.Get("killi.dfh_b'01_to_b'00") + r.Counters.Get("killi.dfh_b'01_to_b'10")
	}
	var once sync.Once
	for i := 0; i < b.N; i++ {
		with := run(killi.Config{Ratio: 64})
		without := run(killi.Config{Ratio: 64, NoEvictionTraining: true})
		once.Do(func() {
			b.Logf("Ablation eviction-training: classified %d lines with it, %d without; cycles %d vs %d",
				trained(with), trained(without), with.Cycles, without.Cycles)
		})
	}
}

// BenchmarkAblationAllocationPriority quantifies §4.4's b'01 > b'00 > b'10
// allocation priority against plain invalid-first LRU.
func BenchmarkAblationAllocationPriority(b *testing.B) {
	run := func(cfg killi.Config) gpu.Result {
		g := gpu.DefaultConfig()
		g.Voltage = 0.625
		w, err := workload.ByName("miniamr")
		if err != nil {
			b.Fatal(err)
		}
		return gpu.New(g, func() protection.Scheme { return killi.New(cfg) }).Run(w.Traces(g.CUs, 2500, 1))
	}
	var once sync.Once
	for i := 0; i < b.N; i++ {
		pri := run(killi.Config{Ratio: 64})
		lru := run(killi.Config{Ratio: 64, PlainLRUAllocation: true})
		once.Do(func() {
			b.Logf("Ablation allocation-priority: cycles %d (priority) vs %d (plain LRU)",
				pri.Cycles, lru.Cycles)
		})
	}
}

// BenchmarkWorkloadGeneration measures trace generation throughput for the
// full ten-workload catalog.
func BenchmarkWorkloadGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, w := range workload.Catalog() {
			_ = w.Traces(1, 1000, uint64(i))
		}
	}
}

// BenchmarkTransitionLatency quantifies the paper's deployment argument
// (§1): the voltage-transition cost of MBIST-based schemes versus Killi's
// zero-latency DFH reset, over a bursty DVFS schedule.
func BenchmarkTransitionLatency(b *testing.B) {
	w, err := workload.ByName("lulesh")
	if err != nil {
		b.Fatal(err)
	}
	cfg := gpu.DefaultConfig()
	cfg.RefVoltage = 0.6
	mk := func() []dvfs.Phase {
		var phases []dvfs.Phase
		for i := 0; i < 4; i++ {
			phases = append(phases,
				dvfs.Phase{Voltage: 1.0, Kernel: w.Traces(cfg.CUs, 800, uint64(i))},
				dvfs.Phase{Voltage: 0.625, Kernel: w.Traces(cfg.CUs, 800, uint64(i)+50)})
		}
		return phases
	}
	var once sync.Once
	for i := 0; i < b.N; i++ {
		secded := protection.NewSECDEDPerLine()
		repS := dvfs.RunSchedule(gpu.New(cfg, func() protection.Scheme { return protection.NewSECDEDPerLine() }), secded, dvfs.DefaultMBIST(), mk())
		k := killi.New(killi.Config{Ratio: 64})
		repK := dvfs.RunSchedule(gpu.New(cfg, func() protection.Scheme { return killi.New(killi.Config{Ratio: 64}) }), k, dvfs.DefaultMBIST(), mk())
		once.Do(func() {
			b.Logf("Transition latency: secded-per-line %s", repS)
			b.Logf("Transition latency: killi-1:64      %s", repK)
		})
	}
}

// BenchmarkAblationECCIndexing compares the paper's modulo ECC cache
// indexing against an XOR-folded hash: hashing spreads which L2 sets
// alias onto the same ECC set, changing contention-eviction patterns.
func BenchmarkAblationECCIndexing(b *testing.B) {
	run := func(cfg killi.Config) gpu.Result {
		g := gpu.DefaultConfig()
		g.Voltage = 0.625
		w, err := workload.ByName("xsbench")
		if err != nil {
			b.Fatal(err)
		}
		return gpu.New(g, func() protection.Scheme { return killi.New(cfg) }).Run(w.Traces(g.CUs, 2500, 1))
	}
	var once sync.Once
	for i := 0; i < b.N; i++ {
		mod := run(killi.Config{Ratio: 64})
		xor := run(killi.Config{Ratio: 64, XORHashECCIndex: true})
		once.Do(func() {
			b.Logf("Ablation ECC indexing: modulo %d contention evictions / %d cycles; xor %d / %d",
				mod.Counters.Get("killi.ecc_contention_evictions"), mod.Cycles,
				xor.Counters.Get("killi.ecc_contention_evictions"), xor.Cycles)
		})
	}
}
