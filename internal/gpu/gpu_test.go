package gpu

import (
	"testing"

	"killi/internal/faultmodel"
	"killi/internal/killi"
	"killi/internal/protection"
	"killi/internal/workload"
)

// smallConfig shrinks the system for fast tests: 128 KB L2 keeps the
// fault-map and warm-up costs low while preserving all mechanisms.
func smallConfig(v float64) Config {
	cfg := DefaultConfig()
	cfg.L2Bytes = 128 << 10
	cfg.Voltage = v
	return cfg
}

// fac adapts a no-argument scheme constructor to the Factory the System
// consumes (it builds one instance per bank).
func fac[S protection.Scheme](newS func() S) protection.Factory {
	return func() protection.Scheme { return newS() }
}

// killiFac builds a per-bank factory for Killi with the given config.
func killiFac(c killi.Config) protection.Factory {
	return func() protection.Scheme { return killi.New(c) }
}

func shortTraces(name string, n int) [][]workload.Request {
	w, err := workload.ByName(name)
	if err != nil {
		panic(err)
	}
	return w.Traces(8, n, 42)
}

func TestBaselineNominalRuns(t *testing.T) {
	sys := New(smallConfig(1.0), fac(protection.NewNone))
	res := sys.Run(shortTraces("nekbone", 2000))
	if res.Cycles == 0 || res.Instructions == 0 {
		t.Fatalf("degenerate run: %+v", res)
	}
	if res.Counters.Get("l2.silent_data_corruption") != 0 {
		t.Fatal("SDC in a fault-free system")
	}
	if res.Counters.Get("l2.error_misses") != 0 {
		t.Fatal("error misses in a fault-free system")
	}
	if res.DisabledLines != 0 {
		t.Fatal("disabled lines in a fault-free system")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		sys := New(smallConfig(0.625), killiFac(killi.Config{Ratio: 64}))
		return sys.Run(shortTraces("xsbench", 1500))
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.L2Misses != b.L2Misses || a.Instructions != b.Instructions {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestKilliLowVoltageRunsClean(t *testing.T) {
	sys := New(smallConfig(0.625), killiFac(killi.Config{Ratio: 64}))
	res := sys.Run(shortTraces("lulesh", 3000))
	if res.Counters.Get("l2.silent_data_corruption") != 0 {
		t.Fatalf("SDC count = %d; Killi must deliver clean data",
			res.Counters.Get("l2.silent_data_corruption"))
	}
	// Training must have happened.
	if res.Counters.Get("killi.dfh_b'01_to_b'00") == 0 {
		t.Fatal("no lines classified fault-free")
	}
}

func TestKilliClassifiesFaultPopulation(t *testing.T) {
	// At a very low voltage the fault population is rich: expect some
	// Stable1 classifications and disabled lines.
	cfg := smallConfig(0.575)
	sys := New(cfg, killiFac(killi.Config{Ratio: 16}))
	res := sys.Run(shortTraces("xsbench", 3000))
	if res.Counters.Get("killi.dfh_b'01_to_b'10") == 0 {
		t.Fatal("no single-fault lines discovered at 0.575×VDD")
	}
	if res.Counters.Get("killi.lines_disabled") == 0 {
		t.Fatal("no multi-fault lines disabled at 0.575×VDD")
	}
	// A handful of SDCs is faithful at this voltage (Figure 6's sub-100%
	// coverage); wholesale corruption is not.
	if sdc := res.Counters.Get("l2.silent_data_corruption"); sdc > 20 {
		t.Fatalf("SDC = %d at 0.575×VDD", sdc)
	}
}

func TestKilliPerformanceNearBaseline(t *testing.T) {
	// Paper Figure 4: at 0.625×VDD Killi's slowdown vs the nominal
	// fault-free baseline stays small. Allow generous slack for the tiny
	// test configuration.
	traces := shortTraces("lulesh", 3000)
	base := New(smallConfig(1.0), fac(protection.NewNone)).Run(traces)
	lv := New(smallConfig(0.625), killiFac(killi.Config{Ratio: 16})).Run(traces)
	slowdown := float64(lv.Cycles) / float64(base.Cycles)
	if slowdown > 1.10 {
		t.Fatalf("Killi slowdown %.3f at 0.625×VDD, want < 1.10", slowdown)
	}
	if slowdown < 0.95 {
		t.Fatalf("suspicious speedup %.3f", slowdown)
	}
}

func TestSmallerECCCacheNeverFaster(t *testing.T) {
	// Figure 4's trend: smaller ECC caches mean more contention, so
	// execution time is monotone (within noise) in 1/ratio for a
	// memory-bound workload.
	traces := shortTraces("xsbench", 2500)
	big := New(smallConfig(0.625), killiFac(killi.Config{Ratio: 16})).Run(traces)
	small := New(smallConfig(0.625), killiFac(killi.Config{Ratio: 256})).Run(traces)
	if float64(small.Cycles) < float64(big.Cycles)*0.99 {
		t.Fatalf("1:256 (%d cycles) materially faster than 1:16 (%d cycles)", small.Cycles, big.Cycles)
	}
	if small.Counters.Get("killi.ecc_contention_evictions") <
		big.Counters.Get("killi.ecc_contention_evictions") {
		t.Fatal("smaller ECC cache shows less contention")
	}
}

func TestWorkloadClassesSeparate(t *testing.T) {
	// Figure 5's split under the full-size L2: memory-bound MPKI is far
	// above compute-bound MPKI.
	cfg := DefaultConfig() // full 2 MB L2
	memRes := New(cfg, fac(protection.NewNone)).Run(shortTraces("xsbench", 3000))
	cmpRes := New(cfg, fac(protection.NewNone)).Run(shortTraces("nekbone", 3000))
	if memRes.MPKI() < 100 {
		t.Fatalf("xsbench MPKI = %.1f, want > 100 (memory-bound)", memRes.MPKI())
	}
	if cmpRes.MPKI() > 50 {
		t.Fatalf("nekbone MPKI = %.1f, want < 50 (compute-bound)", cmpRes.MPKI())
	}
}

func TestAllSchemesRunAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix smoke test")
	}
	schemes := []protection.Factory{
		fac(protection.NewSECDEDPerLine),
		fac(protection.NewDECTEDPerLine),
		fac(protection.NewFLAIR),
		fac(protection.NewMSECC),
		killiFac(killi.Config{Ratio: 64}),
	}
	for _, w := range workload.Catalog() {
		traces := w.Traces(8, 600, 7)
		for _, newScheme := range schemes {
			name := newScheme().Name()
			sys := New(smallConfig(0.625), newScheme)
			res := sys.Run(traces)
			if res.Cycles == 0 {
				t.Fatalf("%s/%s produced no cycles", w.Name, name)
			}
			if sdc := res.Counters.Get("l2.silent_data_corruption"); sdc != 0 {
				t.Errorf("%s/%s: SDC = %d", w.Name, name, sdc)
			}
		}
	}
}

func TestVeryLowVoltageBoundedSDC(t *testing.T) {
	// Below ~0.6×VDD Killi's coverage dips under 100 % (Figure 6; the
	// §5.6.2 masked-multi-bit window): a bounded, tiny SDC count is the
	// faithful behaviour. The system must terminate with most multi-bit
	// lines disabled.
	sys := New(smallConfig(0.575), killiFac(killi.Config{Ratio: 16}))
	res := sys.Run(shortTraces("nekbone", 1500))
	sdc := res.Counters.Get("l2.silent_data_corruption")
	if sdc > res.Counters.Get("l2.read_hits")/4+25 {
		t.Fatalf("SDC = %d of %d hits at 0.575×VDD; coverage collapsed",
			sdc, res.Counters.Get("l2.read_hits"))
	}
	if res.Counters.Get("killi.lines_disabled") == 0 {
		t.Fatal("no disabled lines at 0.575×VDD")
	}
}

func TestInvertedTrainingEliminatesSDC(t *testing.T) {
	// §5.6.2: the inverted-data retraining flow closes the masked-fault
	// SDC window entirely (in the absence of multi-bit soft errors).
	for _, v := range []float64{0.625, 0.575, 0.55} {
		sys := New(smallConfig(v), killiFac(killi.Config{Ratio: 16, InvertedTraining: true}))
		res := sys.Run(shortTraces("nekbone", 1500))
		if sdc := res.Counters.Get("l2.silent_data_corruption"); sdc != 0 {
			t.Fatalf("v=%v: SDC = %d with inverted training", v, sdc)
		}
	}
}

func TestWritesExerciseWriteThroughPath(t *testing.T) {
	sys := New(smallConfig(0.625), killiFac(killi.Config{Ratio: 64}))
	res := sys.Run(shortTraces("fft", 2000)) // fft has a write mix
	if res.Counters.Get("l1.writes") == 0 {
		t.Fatal("fft trace produced no writes")
	}
	if res.Counters.Get("l2.write_updates") == 0 {
		t.Fatal("no write-through L2 updates")
	}
	if res.Counters.Get("l2.silent_data_corruption") != 0 {
		t.Fatal("write path caused SDC")
	}
}

func TestMSECCLowestMPKIAtVeryLowVoltage(t *testing.T) {
	// Figure 5: MS-ECC keeps the most capacity, so at aggressive voltage
	// its MPKI is no worse than SECDED-per-line's.
	traces := shortTraces("xsbench", 2000)
	ms := New(smallConfig(0.575), fac(protection.NewMSECC)).Run(traces)
	sec := New(smallConfig(0.575), fac(protection.NewSECDEDPerLine)).Run(traces)
	if ms.MPKI() > sec.MPKI()+1e-9 {
		t.Fatalf("MS-ECC MPKI %.2f > SECDED %.2f at 0.575×VDD", ms.MPKI(), sec.MPKI())
	}
	if ms.DisabledLines >= sec.DisabledLines {
		t.Fatalf("MS-ECC disabled %d lines, SECDED %d", ms.DisabledLines, sec.DisabledLines)
	}
}

func BenchmarkKilliSimulation(b *testing.B) {
	traces := shortTraces("lulesh", 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys := New(smallConfig(0.625), killiFac(killi.Config{Ratio: 64}))
		_ = sys.Run(traces)
	}
}

func TestSteadyStateNearBaseline(t *testing.T) {
	// After a warm-up kernel trains the DFH bits, Killi's steady-state
	// execution time approaches the paper's ≤1% band even on a
	// reuse-heavy workload.
	traces := shortTraces("miniamr", 3000)
	base := New(smallConfig(1.0), fac(protection.NewNone))
	base.Run(traces)
	baseRes := base.Run(traces)

	lv := New(smallConfig(0.625), killiFac(killi.Config{Ratio: 64}))
	lv.Run(traces) // warm-up kernel: DFH training happens here
	lvRes := lv.Run(traces)

	slow := float64(lvRes.Cycles) / float64(baseRes.Cycles)
	if slow > 1.03 {
		t.Fatalf("steady-state slowdown %.4f, want ≤ 1.03", slow)
	}
}

func TestRunDeltasAreIndependent(t *testing.T) {
	// Two identical back-to-back kernels on a fault-free system must
	// report (nearly) identical per-run results.
	sys := New(smallConfig(1.0), fac(protection.NewNone))
	traces := shortTraces("nekbone", 1500)
	a := sys.Run(traces)
	b := sys.Run(traces)
	if b.Instructions != a.Instructions {
		t.Fatalf("instruction deltas differ: %d vs %d", a.Instructions, b.Instructions)
	}
	// The second kernel starts warm, so it cannot miss more than the
	// first.
	if b.L2Misses > a.L2Misses {
		t.Fatalf("warm kernel missed more: %d vs %d", b.L2Misses, a.L2Misses)
	}
}

func TestKilliDECTEDModeKeepsMoreCapacity(t *testing.T) {
	// §5.2's DECTED extension: at a voltage with many 2-fault lines,
	// DECTED-mode Killi disables fewer lines than plain Killi.
	traces := shortTraces("xsbench", 2500)
	plain := New(smallConfig(0.59), killiFac(killi.Config{Ratio: 16}))
	pRes := plain.Run(traces)
	dected := New(smallConfig(0.59), killiFac(killi.Config{Ratio: 16, UseDECTED: true}))
	dRes := dected.Run(traces)
	if dRes.DisabledLines >= pRes.DisabledLines {
		t.Fatalf("DECTED mode disabled %d lines, plain %d", dRes.DisabledLines, pRes.DisabledLines)
	}
	if dRes.Counters.Get("l2.silent_data_corruption") != 0 {
		t.Fatal("DECTED mode caused SDC")
	}
	if dRes.Counters.Get("killi.dected_promotions") == 0 {
		t.Fatal("no DECTED promotions at 0.59xVDD")
	}
}

func TestAblationEvictionTrainingMatters(t *testing.T) {
	// DESIGN.md design choice: training on evictions (incl. ECC-cache
	// contention) is what makes DFH warmup converge. Without it, far
	// fewer lines reach a stable state in the same run.
	traces := shortTraces("xsbench", 2500)
	with := New(smallConfig(0.625), killiFac(killi.Config{Ratio: 64})).Run(traces)
	without := New(smallConfig(0.625), killiFac(killi.Config{Ratio: 64, NoEvictionTraining: true})).Run(traces)
	trained := func(r Result) uint64 {
		return r.Counters.Get("killi.dfh_b'01_to_b'00") + r.Counters.Get("killi.dfh_b'01_to_b'10")
	}
	if trained(without) >= trained(with) {
		t.Fatalf("eviction training off classified %d lines vs %d with it on",
			trained(without), trained(with))
	}
	if without.Counters.Get("l2.silent_data_corruption") != 0 {
		t.Fatal("ablation variant caused SDC")
	}
}

func TestAblationAllocationPriorityStillCorrect(t *testing.T) {
	// Plain-LRU allocation must stay functionally correct (the priority
	// is a performance/SDC-exposure optimization only).
	traces := shortTraces("nekbone", 2000)
	res := New(smallConfig(0.625), killiFac(killi.Config{Ratio: 64, PlainLRUAllocation: true})).Run(traces)
	if res.Counters.Get("l2.silent_data_corruption") != 0 {
		t.Fatal("plain-LRU allocation caused SDC")
	}
	if res.Counters.Get("killi.dfh_b'01_to_b'00") == 0 {
		t.Fatal("no training with plain-LRU allocation")
	}
}

func TestAgingFaultsRelearnedWithoutSDC(t *testing.T) {
	// The lifetime-adaptation claim (§4.3): run a kernel, let the array
	// wear out, run again. Killi must relearn the aged lines (post-training
	// errors → retrain) and never deliver corrupt data. Wear-out is the
	// fault-class taxonomy's aging class at ramp 1: half the sampled cells
	// are dormant through fault epoch 0 and active in every later epoch.
	// The epoch is as long as the training kernel, so the aged cells wake
	// exactly when the second kernel starts. A probe System with an
	// endless epoch measures that length: until the first epoch ends, both
	// machines run the same cycles.
	cfg := smallConfig(0.625)
	cfg.Classes = mixedSpec(t, "mixed:a=0.5@1")
	traces := shortTraces("nekbone", 2500)
	probe := cfg
	probe.ClassEpochCycles = 1 << 62
	young := New(probe, killiFac(killi.Config{Ratio: 64})).Run(traces)
	cfg.ClassEpochCycles = young.Cycles
	sys := New(cfg, killiFac(killi.Config{Ratio: 64}))
	train := sys.Run(traces)
	if train.Cycles != young.Cycles {
		t.Fatalf("training kernel took %d cycles, the probe %d: aged cells woke early", train.Cycles, young.Cycles)
	}
	// The census after training counts at epoch 1, with the aged cells.
	if train.Misclass.TrueFaulty <= young.Misclass.TrueFaulty {
		t.Fatalf("faulty lines %d after aging, %d before: nothing aged",
			train.Misclass.TrueFaulty, young.Misclass.TrueFaulty)
	}
	trainErrs := train.Counters.Get("killi.post_training_single_error")
	res := sys.Run(traces)
	if res.Counters.Get("l2.silent_data_corruption") != 0 {
		t.Fatalf("aging caused %d SDCs", res.Counters.Get("l2.silent_data_corruption"))
	}
	if res.Counters.Get("killi.post_training_single_error") == 0 {
		t.Fatal("no post-training errors despite aged faults on a hot working set")
	}
	if res.Misclass.FalseTrust >= train.Misclass.FalseTrust {
		t.Fatalf("false-trust lines %d after the second kernel, %d before it: aged lines not relearned",
			res.Misclass.FalseTrust, train.Misclass.FalseTrust)
	}
	// The counter is cumulative, and masked persistent faults unmasking
	// add post-training errors in any second kernel. So the second
	// kernel's increase is compared with a persistent-only twin of the
	// same seed: only the aged cells waking can put the aged run above it.
	twinCfg := cfg
	twinCfg.Classes = faultmodel.ClassSpec{}
	twin := New(twinCfg, killiFac(killi.Config{Ratio: 64}))
	twinErrs := twin.Run(traces).Counters.Get("killi.post_training_single_error")
	twinAdded := twin.Run(traces).Counters.Get("killi.post_training_single_error") - twinErrs
	if added := res.Counters.Get("killi.post_training_single_error") - trainErrs; added <= twinAdded {
		t.Fatalf("second kernel added %d post-training errors, the persistent-only twin %d: the aged cells added none",
			added, twinAdded)
	}
}

func TestAblationXORIndexStillCorrect(t *testing.T) {
	sys := New(smallConfig(0.625), killiFac(killi.Config{Ratio: 64, XORHashECCIndex: true}))
	res := sys.Run(shortTraces("xsbench", 2000))
	if res.Counters.Get("l2.silent_data_corruption") != 0 {
		t.Fatal("XOR-indexed ECC cache caused SDC")
	}
	if res.Counters.Get("killi.dfh_b'01_to_b'00") == 0 {
		t.Fatal("no training with XOR indexing")
	}
}

func TestTable7OLSCModeCapacity(t *testing.T) {
	// §5.5 / Table 7 behavioral side: at 0.575×VDD, Killi-with-OLSC
	// (1:2 ECC cache) keeps most lines usable while plain Killi loses
	// nearly everything; MS-ECC is the capacity ceiling.
	traces := shortTraces("xsbench", 2500)
	lines := smallConfig(0.575).L2Bytes / 64
	plain := New(smallConfig(0.575), killiFac(killi.Config{Ratio: 2})).Run(traces)
	olscRes := New(smallConfig(0.575), killiFac(killi.Config{Ratio: 2, OLSCStrength: 11})).Run(traces)
	ms := New(smallConfig(0.575), fac(protection.NewMSECC)).Run(traces)

	plainDisabledPct := float64(plain.DisabledLines) / float64(lines) * 100
	olscDisabledPct := float64(olscRes.DisabledLines) / float64(lines) * 100
	msDisabledPct := float64(ms.DisabledLines) / float64(lines) * 100

	if plainDisabledPct < 50 {
		t.Fatalf("plain Killi disabled only %.1f%% at 0.575; expected a collapse", plainDisabledPct)
	}
	if olscDisabledPct > 45 {
		t.Fatalf("OLSC-mode Killi disabled %.1f%%; should retain most touched lines", olscDisabledPct)
	}
	// §6: Killi "takes advantage of LV fault masking to enable a higher
	// number of cache lines than full knowledge of faults would allow" —
	// runtime classification only sees unmasked faults, so it disables
	// no MORE than the oracle-driven MS-ECC characterization.
	if olscDisabledPct > msDisabledPct+1 {
		t.Fatalf("OLSC Killi disabled %.1f%% vs MS-ECC oracle %.1f%%",
			olscDisabledPct, msDisabledPct)
	}
	if sdc := olscRes.Counters.Get("l2.silent_data_corruption"); sdc > 5 {
		t.Fatalf("OLSC mode SDC = %d", sdc)
	}
}
