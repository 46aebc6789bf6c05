package analytic

import (
	"testing"

	"killi/internal/gpu"
	"killi/internal/killi"
	"killi/internal/protection"
	"killi/internal/workload"
)

// activityEnergy charges a run's activity counters at data-array voltage
// vNorm — the empirical counterpart of Table 6's calibrated model. The
// unit is one nominal-voltage 64-byte array read, so only ratios mean
// anything. Array events scale with V² and leakage with V; ECC-cache
// touches, codec passes and DRAM transfers stay on the nominal rail (the
// paper's dual-rail design, §2.4). It returns the L2-subsystem energy
// (array, ECC, codec, leakage) and the memory-traffic energy apart.
func activityEnergy(res gpu.Result, vNorm float64) (subsystem, dram float64) {
	const (
		eccEntry      = 0.08 // one 41-bit ECC cache entry touch
		codecOp       = 0.05 // one parity/SECDED encoder or decoder pass
		dramLine      = 20.0 // one line transfer to or from memory
		leakPerKCycle = 1.0  // array leakage per thousand cycles
	)
	ctr := res.Counters
	// Reads, write updates and eviction readouts touch the array; every
	// access is checked once, and a polarity check adds a write+read pass.
	array := float64(res.L2Accesses + ctr.Get("l2.write_updates") + ctr.Get("l2.evictions"))
	codec := float64(res.L2Accesses + ctr.Get("killi.corrected_reads") + 2*ctr.Get("killi.inverted_checks"))
	ecc := float64(ctr.Get("killi.ecc_accesses"))
	subsystem = array*vNorm*vNorm + ecc*eccEntry + codec*codecOp +
		float64(res.Cycles)/1000*leakPerKCycle*vNorm
	return subsystem, float64(res.MemAccesses) * dramLine
}

// steadyKernel runs one warm-up kernel of nekbone on a 128 KB L2 and
// returns the second, steady-state kernel.
func steadyKernel(t *testing.T, v float64, newScheme protection.Factory) gpu.Result {
	t.Helper()
	cfg := gpu.DefaultConfig()
	cfg.L2Bytes = 128 << 10
	cfg.Voltage = v
	w, err := workload.ByName("nekbone")
	if err != nil {
		t.Fatal(err)
	}
	traces := w.Traces(cfg.CUs, 2500, 3)
	sys := gpu.New(cfg, newScheme)
	sys.Run(traces)
	return sys.Run(traces)
}

// TestUndervoltingSavesEnergy cross-checks Table 6's headline from the
// simulator's activity: Killi at 0.625×VDD burns materially less L2
// energy than the fault-free baseline at nominal voltage on the same
// kernel. The metric is Table 6's: the run's subsystem energy plus only
// the memory traffic it causes beyond the baseline, normalized to the
// baseline's subsystem energy.
func TestUndervoltingSavesEnergy(t *testing.T) {
	baseSub, baseDRAM := activityEnergy(steadyKernel(t, 1.0,
		func() protection.Scheme { return protection.NewNone() }), 1.0)
	lvSub, lvDRAM := activityEnergy(steadyKernel(t, 0.625,
		func() protection.Scheme { return killi.New(killi.Config{Ratio: 64}) }), 0.625)
	pct := (lvSub + max(lvDRAM-baseDRAM, 0)) / baseSub * 100
	t.Logf("LV subsystem energy = %.1f%% of nominal", pct)
	if pct >= 80 {
		t.Fatalf("LV subsystem energy = %.1f%% of nominal; undervolting saved almost nothing", pct)
	}
	if pct <= 30 {
		t.Fatalf("LV subsystem energy = %.1f%%; below the V² floor", pct)
	}
	// The all-in ratio (common DRAM traffic included) is necessarily
	// closer to 100%.
	if all := (lvSub + lvDRAM) / (baseSub + baseDRAM) * 100; all <= pct {
		t.Fatalf("total ratio %.1f%% below subsystem ratio %.1f%%", all, pct)
	}
}
