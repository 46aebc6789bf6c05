package dvfs

import (
	"strings"
	"testing"

	"killi/internal/gpu"
	"killi/internal/killi"
	"killi/internal/protection"
	"killi/internal/workload"
)

func smallCfg(v float64) gpu.Config {
	cfg := gpu.DefaultConfig()
	cfg.L2Bytes = 128 << 10
	cfg.Voltage = v
	cfg.RefVoltage = 0.55 // schedules dip this low
	return cfg
}

func kernel(n int) [][]workload.Request {
	w, err := workload.ByName("nekbone")
	if err != nil {
		panic(err)
	}
	return w.Traces(8, n, 5)
}

func TestMBISTStallCycles(t *testing.T) {
	m := DefaultMBIST()
	// Paper-size cache: 32768 lines × 10 passes × 4 cycles / 16 banks.
	if got, want := m.StallCycles(32768), uint64(32768*10*4/16); got != want {
		t.Fatalf("StallCycles = %d, want %d", got, want)
	}
	// Degenerate parallelism clamps to 1.
	bad := MBISTModel{MarchOps: 2, CyclesPerOp: 1, ParallelBanks: 0}
	if bad.StallCycles(10) != 20 {
		t.Fatal("parallelism clamp broken")
	}
}

func TestNeedsMBIST(t *testing.T) {
	if !needsMBIST(protection.NewSECDEDPerLine()) {
		t.Fatal("SECDED-per-line should need MBIST")
	}
	if !needsMBIST(protection.NewMSECC()) {
		t.Fatal("MS-ECC should need MBIST")
	}
	if !needsMBIST(protection.NewFLAIR()) {
		t.Fatal("pre-trained FLAIR should need MBIST")
	}
	if needsMBIST(killi.New(killi.Config{Ratio: 64, Assoc: 4})) {
		t.Fatal("Killi must never need MBIST")
	}
	if needsMBIST(protection.NewNone()) {
		t.Fatal("None needs no MBIST")
	}
}

func TestScheduleChargesStallsOnlyForMBISTSchemes(t *testing.T) {
	phases := []Phase{
		{Voltage: 1.0, Kernel: kernel(600)},
		{Voltage: 0.625, Kernel: kernel(600)},
		{Voltage: 0.7, Kernel: kernel(600)},
		{Voltage: 0.625, Kernel: kernel(600)},
	}
	m := DefaultMBIST()

	secded := protection.NewSECDEDPerLine()
	repS := RunSchedule(gpu.New(smallCfg(1.0), func() protection.Scheme { return protection.NewSECDEDPerLine() }), secded, m, phases)
	k := killi.New(killi.Config{Ratio: 64})
	repK := RunSchedule(gpu.New(smallCfg(1.0), func() protection.Scheme { return killi.New(killi.Config{Ratio: 64}) }), k, m, phases)

	if repS.Transitions != 3 || repK.Transitions != 3 {
		t.Fatalf("transitions: secded=%d killi=%d, want 3", repS.Transitions, repK.Transitions)
	}
	wantStall := 3 * m.StallCycles(2048)
	if repS.StallCycles != wantStall {
		t.Fatalf("SECDED stall = %d, want %d", repS.StallCycles, wantStall)
	}
	if repK.StallCycles != 0 {
		t.Fatalf("Killi stall = %d, want 0", repK.StallCycles)
	}
	if len(repS.PhaseCycles) != 4 {
		t.Fatalf("phase count %d", len(repS.PhaseCycles))
	}
}

func TestVoltageTransitionReclaimsAndRelearns(t *testing.T) {
	// Drop to a harsh voltage (lines disabled), rise back to nominal
	// (reset reclaims), drop again: the system keeps running and never
	// silently corrupts.
	k := killi.New(killi.Config{Ratio: 32})
	sys := gpu.New(smallCfg(0.575), func() protection.Scheme { return killi.New(killi.Config{Ratio: 32}) })
	phases := []Phase{
		{Voltage: 0.575, Kernel: kernel(800)},
		{Voltage: 1.0, Kernel: kernel(800)},
		{Voltage: 0.575, Kernel: kernel(800)},
	}
	rep := RunSchedule(sys, k, DefaultMBIST(), phases)
	if rep.Transitions != 2 {
		t.Fatalf("transitions = %d", rep.Transitions)
	}
	ctr := sys.Stats()
	if ctr.Get("l2.voltage_transitions") != 2 {
		t.Fatal("transition counter wrong")
	}
	if ctr.Get("killi.lines_reclaim_attempted") == 0 {
		t.Fatal("no disabled lines reclaimed at the nominal phase")
	}
	if sdc := ctr.Get("l2.silent_data_corruption"); sdc > 20 {
		t.Fatalf("SDC = %d across transitions", sdc)
	}
}

func TestStallDelaysExecution(t *testing.T) {
	// The same schedule with and without MBIST: total cycles must differ
	// by at least the stall time (fault-free voltage so the protection
	// behaviour is identical).
	phases := []Phase{
		{Voltage: 1.0, Kernel: kernel(500)},
		{Voltage: 0.9, Kernel: kernel(500)},
	}
	m := DefaultMBIST()
	secded := protection.NewSECDEDPerLine()
	repS := RunSchedule(gpu.New(smallCfg(1.0), func() protection.Scheme { return protection.NewSECDEDPerLine() }), secded, m, phases)
	k := killi.New(killi.Config{Ratio: 64})
	repK := RunSchedule(gpu.New(smallCfg(1.0), func() protection.Scheme { return killi.New(killi.Config{Ratio: 64}) }), k, m, phases)
	if repS.TotalCycles < repK.TotalCycles+m.StallCycles(2048)/2 {
		t.Fatalf("MBIST stall not reflected: secded=%d killi=%d", repS.TotalCycles, repK.TotalCycles)
	}
}

func TestReportString(t *testing.T) {
	r := Report{TotalCycles: 1000, StallCycles: 100, Transitions: 2}
	s := r.String()
	if !strings.Contains(s, "1000") || !strings.Contains(s, "10.0%") {
		t.Fatalf("report rendering: %q", s)
	}
}
