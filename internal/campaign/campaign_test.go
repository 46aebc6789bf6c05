package campaign

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"killi/internal/experiments"
	"killi/internal/faultmodel"
	"killi/internal/gpu"
	"killi/internal/protection"
	"killi/internal/workload"
)

// stubFaults skips the 32K-line fault-map build; stub simulators never read
// the views. ballast, when positive, allocates that many bytes per die so a
// pipeline bug that retained per-die state would blow the soak-test heap
// ceiling instead of hiding behind tiny records.
func stubFaults(ballast int) func(gpu.Config, []float64) ([]*gpu.SharedFaults, *gpu.SharedFaults) {
	return func(_ gpu.Config, voltages []float64) ([]*gpu.SharedFaults, *gpu.SharedFaults) {
		if ballast > 0 {
			_ = make([]byte, ballast)
		}
		return make([]*gpu.SharedFaults, len(voltages)), &gpu.SharedFaults{}
	}
}

// stubSim returns a deterministic pure function of (die seed, voltage):
// cycles grow as voltage drops, with die-to-die spread, so yields, quantiles
// and Vmin all take non-trivial values. The baseline run (voltage 1.0) lands
// near 100000 cycles.
func stubSim() simFunc {
	return func(_ context.Context, g gpu.Config, _ protection.Factory, _ *gpu.SharedFaults, _ *workload.TraceSet, _ int) (gpu.Result, error) {
		h := g.FaultSeed ^ math.Float64bits(g.Voltage)
		h ^= h >> 29
		h *= 0x9e3779b97f4a7c15
		h ^= h >> 32
		cycles := 100000 + h%512
		if g.Voltage < 1.0 {
			// Low voltage hurts: up to ~40% slowdown at the bottom of the
			// grid, scaled by a per-(die,voltage) factor in [0, 2).
			penalty := (1.0 - g.Voltage) * float64(h%2048) / 1024
			cycles += uint64(float64(cycles) * penalty)
		}
		return gpu.Result{
			Cycles:       cycles,
			Instructions: 1000 * 1000,
			L2Misses:     h % 997,
			L2Accesses:   100000,
			MemAccesses:  h % 997,
		}, nil
	}
}

func stubConfig(dies, parallelism int) Config {
	return Config{
		Workloads:   []string{"xsbench"},
		Schemes:     []string{"killi-1:64", "msecc"},
		Voltages:    []float64{0.550, 0.575, 0.600, 0.625, 0.650, 0.675, 0.700, 0.725},
		Dies:        dies,
		Seed:        7,
		Parallelism: parallelism,
		// Tiny traces: the stub ignores them, but Run still generates them.
		RequestsPerCU: 16,
		runSim:        stubSim(),
		dieFaults:     stubFaults(0),
	}
}

// csvOf renders the determinism artifact: every simulation-derived float at
// %.17g, host-dependent timing excluded.
func csvOf(t *testing.T, r *Result) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.writeCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	return buf.String()
}

// TestParallelismInvariance pins the headline determinism property: the same
// campaign seed produces bit-identical aggregates (every float compared at
// %.17g) at parallelism 1 and at several worker counts.
func TestParallelismInvariance(t *testing.T) {
	ref, err := Run(context.Background(), stubConfig(300, 1))
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	refCSV := csvOf(t, ref)

	for _, parallel := range []int{2, 4, 16} {
		got, err := Run(context.Background(), stubConfig(300, parallel))
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		if gotCSV := csvOf(t, got); gotCSV != refCSV {
			t.Errorf("parallel=%d: CSV differs from serial run", parallel)
		}
		// The structural fields must agree too, not just the formatted rows.
		got.ElapsedSeconds, got.DiesPerSecond = 0, 0
		refCopy := *ref
		refCopy.ElapsedSeconds, refCopy.DiesPerSecond = 0, 0
		if !reflect.DeepEqual(got, &refCopy) {
			t.Errorf("parallel=%d: Result struct differs from serial run", parallel)
		}
	}
}

// TestColdCampaignSharesState pins the campaign's shared-state discipline on
// a cold, uncached run: one fault population per die, one trace set per
// workload shared by every die and scheme, and one resolved fault view per
// (die, voltage) shared by every workload and scheme at that point.
func TestColdCampaignSharesState(t *testing.T) {
	const dies = 5
	cfg := stubConfig(dies, 4)
	cfg.Workloads = []string{"xsbench", "fft"}
	cfg.Voltages = []float64{0.600, 0.625, 0.650}

	var builds atomic.Int64
	cfg.dieFaults = func(_ gpu.Config, voltages []float64) ([]*gpu.SharedFaults, *gpu.SharedFaults) {
		builds.Add(1)
		at := make([]*gpu.SharedFaults, len(voltages))
		for i := range at {
			at[i] = &gpu.SharedFaults{}
		}
		return at, &gpu.SharedFaults{}
	}
	type point struct {
		seed    uint64
		voltage float64
	}
	var mu sync.Mutex
	tracesSeen := map[*workload.TraceSet]int{}
	faultsSeen := map[point]map[*gpu.SharedFaults]int{}
	inner := cfg.runSim
	cfg.runSim = func(ctx context.Context, g gpu.Config, f protection.Factory, sf *gpu.SharedFaults, ts *workload.TraceSet, sh int) (gpu.Result, error) {
		mu.Lock()
		tracesSeen[ts]++
		p := point{g.FaultSeed, g.Voltage}
		if faultsSeen[p] == nil {
			faultsSeen[p] = map[*gpu.SharedFaults]int{}
		}
		faultsSeen[p][sf]++
		mu.Unlock()
		return inner(ctx, g, f, sf, ts, sh)
	}
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}

	if got := builds.Load(); got != dies {
		t.Errorf("dieFaults called %d times, want %d (one fault population per die)", got, dies)
	}
	// Each workload's cells: one nominal baseline plus scheme × voltage.
	perWorkload := dies * (1 + len(cfg.Schemes)*len(cfg.Voltages))
	if len(tracesSeen) != len(cfg.Workloads) {
		t.Errorf("%d distinct trace sets, want %d (one per workload)", len(tracesSeen), len(cfg.Workloads))
	}
	for ts, n := range tracesSeen {
		if ts == nil || n != perWorkload {
			t.Errorf("trace set %p served %d cells, want %d", ts, n, perWorkload)
		}
	}
	if want := dies * (len(cfg.Voltages) + 1); len(faultsSeen) != want {
		t.Errorf("%d distinct (die, voltage) points, want %d", len(faultsSeen), want)
	}
	for p, views := range faultsSeen {
		want := len(cfg.Workloads) * len(cfg.Schemes)
		if p.voltage == 1.0 {
			want = len(cfg.Workloads) // the nominal baseline runs scheme "none" only
		}
		if len(views) != 1 {
			t.Errorf("die seed %#x at %.3f V: %d distinct fault views, want 1", p.seed, p.voltage, len(views))
		}
		for sf, n := range views {
			if sf == nil || n != want {
				t.Errorf("die seed %#x at %.3f V: view %p served %d cells, want %d", p.seed, p.voltage, sf, n, want)
			}
		}
	}
}

// TestProgressInOrder pins the Progress contract: called once per die, in
// die order, regardless of completion order.
func TestProgressInOrder(t *testing.T) {
	cfg := stubConfig(64, 8)
	var calls []int
	cfg.Progress = func(p ProgressInfo) {
		if p.Total != 64 {
			t.Errorf("Progress total = %d, want 64", p.Total)
		}
		calls = append(calls, p.Done)
	}
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(calls) != 64 {
		t.Fatalf("Progress called %d times, want 64", len(calls))
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("Progress call %d reported done=%d, want %d", i, d, i+1)
		}
	}
}

// TestVminClassification drives the Vmin scan with hand-built pass/fail
// patterns: Vmin is the lowest grid voltage from which the die passes at
// every higher grid point too, a non-monotone die gets the top of its
// passing suffix, and an everywhere-failing die lands in FailFrac.
func TestVminClassification(t *testing.T) {
	grid := []float64{0.60, 0.65, 0.70}
	// Per die, per grid index: does the cell pass?
	pattern := [][]bool{
		{true, true, true},    // Vmin 0.60
		{false, true, true},   // Vmin 0.65
		{false, false, true},  // Vmin 0.70
		{true, false, true},   // fluke pass at 0.60 must not count: Vmin 0.70
		{false, false, false}, // fails everywhere
	}
	seedToDie := make(map[uint64]int)
	for d := range pattern {
		seedToDie[faultmodel.DieSeed(9, d)] = d
	}
	cfg := Config{
		Workloads:     []string{"xsbench"},
		Schemes:       []string{"none"},
		Voltages:      grid,
		Dies:          len(pattern),
		Seed:          9,
		RequestsPerCU: 16,
		dieFaults:     stubFaults(0),
		runSim: func(_ context.Context, g gpu.Config, _ protection.Factory, _ *gpu.SharedFaults, _ *workload.TraceSet, _ int) (gpu.Result, error) {
			if g.Voltage == 1.0 {
				return gpu.Result{Cycles: 1000, Instructions: 1000}, nil
			}
			die := seedToDie[g.FaultSeed]
			vi := -1
			for i, v := range grid {
				if v == g.Voltage {
					vi = i
				}
			}
			if vi < 0 {
				t.Errorf("unexpected voltage %v", g.Voltage)
			}
			cycles := uint64(1050) // norm 1.05: passes at the default 1.10
			if !pattern[die][vi] {
				cycles = 2000 // norm 2.0: fails
			}
			return gpu.Result{Cycles: cycles, Instructions: 1000}, nil
		},
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	cdf := res.Vmin[0]
	wantCounts := []int64{1, 1, 2}
	for i, p := range cdf.Points {
		if p.Count != wantCounts[i] {
			t.Errorf("Vmin count at %.2f = %d, want %d", p.Voltage, p.Count, wantCounts[i])
		}
	}
	if got, want := cdf.Points[2].CumFrac, 0.8; got != want {
		t.Errorf("CumFrac at grid max = %v, want %v", got, want)
	}
	if got, want := cdf.FailFrac, 0.2; got != want {
		t.Errorf("FailFrac = %v, want %v", got, want)
	}
	if got, want := cdf.MeanVmin, (0.60+0.65+0.70+0.70)/4; math.Abs(got-want) > 1e-12 {
		t.Errorf("MeanVmin = %v, want %v", got, want)
	}
	// Yield at the grid maximum: dies 0..3 pass, die 4 fails.
	if got := res.YieldAt("xsbench", "none", 0.70); got != 0.8 {
		t.Errorf("YieldAt(0.70) = %v, want 0.8", got)
	}
	if got := res.YieldAt("xsbench", "none", 0.60); got != 0.4 {
		t.Errorf("YieldAt(0.60) = %v, want 0.4", got)
	}
	if !math.IsNaN(res.YieldAt("xsbench", "none", 0.99)) {
		t.Errorf("YieldAt(off-grid) should be NaN")
	}
}

// TestBoundedMemorySoak runs the ISSUE's acceptance campaign shape — 10,000
// dies x 1 workload x 2 schemes x 8 voltages — through the full parallel
// pipeline with 64 KiB of per-die ballast and asserts the heap never grows
// past a fixed ceiling. Retaining per-die state (records outside the reorder
// window, fault views, results) would need hundreds of megabytes; streaming
// aggregation needs a few.
func TestBoundedMemorySoak(t *testing.T) {
	const dies = 10000
	cfg := stubConfig(dies, 8)
	cfg.dieFaults = stubFaults(64 << 10)

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	start := ms.HeapAlloc
	// Generous ceiling: a constant-factor bound, far below the ~640 MiB
	// that retaining 10k dies x 64 KiB ballast would need (never mind 10k
	// real fault maps), but far above window-bounded steady state.
	ceiling := start + 96<<20

	var peak atomic.Uint64
	var checks atomic.Int64
	cfg.Progress = func(p ProgressInfo) {
		if p.Done%512 != 0 && p.Done != p.Total {
			return
		}
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		if m.HeapAlloc > peak.Load() {
			peak.Store(m.HeapAlloc)
		}
		checks.Add(1)
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Dies != dies || res.Cells[0].Dies != dies {
		t.Fatalf("aggregated %d/%d dies", res.Cells[0].Dies, res.Dies)
	}
	if checks.Load() < dies/512 {
		t.Fatalf("heap sampled %d times, want >= %d", checks.Load(), dies/512)
	}
	if p := peak.Load(); p > ceiling {
		t.Errorf("peak HeapAlloc %d MiB exceeds ceiling %d MiB (start %d MiB): per-die state is accumulating",
			p>>20, ceiling>>20, start>>20)
	}
}

// TestRealCampaignMatchesRunOne cross-checks the whole campaign path against
// the established single-run entry point: a one-die campaign's cells must
// reproduce experiments.RunOne bit-for-bit when RunOne is handed the
// DieSeed-derived fault seed and the grid-minimum reference voltage.
func TestRealCampaignMatchesRunOne(t *testing.T) {
	grid := []float64{0.625, 0.650}
	const seed, reqs = 11, 300
	cfg := Config{
		Workloads:     []string{"xsbench"},
		Schemes:       []string{"killi-1:64"},
		Voltages:      grid,
		Dies:          1,
		Seed:          seed,
		RequestsPerCU: reqs,
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	g := gpu.DefaultConfig()
	g.FaultSeed = faultmodel.DieSeed(seed, 0)
	g.RefVoltage = grid[0]
	ecfg := experiments.Config{Seed: seed, RequestsPerCU: reqs, GPU: &g}
	noneF, err := experiments.SchemeFactoryByName("none")
	if err != nil {
		t.Fatal(err)
	}
	killiF, err := experiments.SchemeFactoryByName("killi-1:64")
	if err != nil {
		t.Fatal(err)
	}
	base, err := experiments.RunOne(context.Background(), ecfg, "xsbench", noneF, 1.0)
	if err != nil {
		t.Fatalf("RunOne baseline: %v", err)
	}
	if got, want := res.Baselines[0].CyclesMean, float64(base.Cycles); got != want {
		t.Errorf("baseline cycles = %v, want %v", got, want)
	}
	for vi, v := range grid {
		lv, err := experiments.RunOne(context.Background(), ecfg, "xsbench", killiF, v)
		if err != nil {
			t.Fatalf("RunOne at %.3f: %v", v, err)
		}
		c := res.Cells[vi]
		if got, want := c.NormMean, float64(lv.Cycles)/float64(base.Cycles); got != want {
			t.Errorf("NormMean at %.3f = %v, want %v", v, got, want)
		}
		if got, want := c.MPKIMean, lv.MPKI(); got != want {
			t.Errorf("MPKIMean at %.3f = %v, want %v", v, got, want)
		}
		if got, want := c.DisabledMean, float64(lv.DisabledLines); got != want {
			t.Errorf("DisabledMean at %.3f = %v, want %v", v, got, want)
		}
	}
}

// TestRealCampaignParallelismInvariance is the invariance test over the real
// simulator (tiny: 3 dies, one scheme, two grid points).
func TestRealCampaignParallelismInvariance(t *testing.T) {
	cfg := Config{
		Workloads:     []string{"xsbench"},
		Schemes:       []string{"killi-1:64"},
		Voltages:      []float64{0.625, 0.650},
		Dies:          3,
		Seed:          5,
		RequestsPerCU: 200,
	}
	serial, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	cfg.Parallelism = 3
	par, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if a, b := csvOf(t, serial), csvOf(t, par); a != b {
		t.Errorf("real campaign CSV differs between parallelism 1 and 3:\n%s\nvs\n%s", a, b)
	}
}

// TestRunErrors covers validation and failure propagation.
func TestRunErrors(t *testing.T) {
	if _, err := Run(context.Background(), Config{}); err == nil {
		t.Error("Dies=0 should fail validation")
	}
	bad := []Config{
		{Dies: 1, Workloads: []string{"no-such-workload"}},
		{Dies: 1, Schemes: []string{"no-such-scheme"}},
		{Dies: 1, Voltages: []float64{0.6, 0.6}},
		{Dies: 1, Voltages: []float64{-0.1}},
		{Dies: 1, Voltages: []float64{0.6, math.NaN()}},
		{Dies: 1, Voltages: []float64{math.Inf(1)}},
		{Dies: 1, PassThreshold: 0.9},
		{Dies: 1, RequestsPerCU: -4},
		{Dies: 1, WarmupKernels: -1},
	}
	for i, cfg := range bad {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("bad config %d should fail validation", i)
		}
	}

	// A simulation error surfaces from the parallel path.
	boom := errors.New("boom")
	cfg := stubConfig(32, 4)
	inner := cfg.runSim
	cfg.runSim = func(ctx context.Context, g gpu.Config, f protection.Factory, sf *gpu.SharedFaults, ts *workload.TraceSet, sh int) (gpu.Result, error) {
		if g.FaultSeed == faultmodel.DieSeed(cfg.Seed, 17) {
			return gpu.Result{}, boom
		}
		return inner(ctx, g, f, sf, ts, sh)
	}
	if _, err := Run(context.Background(), cfg); !errors.Is(err, boom) {
		t.Errorf("parallel run error = %v, want %v", err, boom)
	}

	// Cancellation mid-campaign returns ctx.Err().
	ctx, cancel := context.WithCancel(context.Background())
	var n atomic.Int64
	cfg = stubConfig(512, 4)
	inner = cfg.runSim
	cfg.runSim = func(ctx context.Context, g gpu.Config, f protection.Factory, sf *gpu.SharedFaults, ts *workload.TraceSet, sh int) (gpu.Result, error) {
		if n.Add(1) == 100 {
			cancel()
		}
		return inner(ctx, g, f, sf, ts, sh)
	}
	if _, err := Run(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run error = %v, want context.Canceled", err)
	}
}

// TestOutputFormats smoke-tests the three renderers over one stub result.
func TestOutputFormats(t *testing.T) {
	res, err := Run(context.Background(), stubConfig(40, 1))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var table, csv, jsonl bytes.Buffer
	if err := res.Write(&table, FormatTable); err != nil {
		t.Fatalf("table: %v", err)
	}
	if err := res.Write(&csv, FormatCSV); err != nil {
		t.Fatalf("csv: %v", err)
	}
	if err := res.Write(&jsonl, FormatJSONL); err != nil {
		t.Fatalf("jsonl: %v", err)
	}
	if err := res.Write(&table, "yaml"); err == nil {
		t.Error("unknown format should error")
	}
	if !strings.Contains(table.String(), "Vmin CDF") {
		t.Errorf("table output missing Vmin section:\n%s", table.String())
	}
	wantRows := 1 + 16 /*cells*/ + 16 /*vmin*/ + 2 /*summaries*/
	if got := strings.Count(csv.String(), "\n"); got != wantRows {
		t.Errorf("CSV has %d rows, want %d", got, wantRows)
	}
	for _, typ := range []string{`"type":"campaign"`, `"type":"baseline"`, `"type":"cell"`, `"type":"vmin"`} {
		if !strings.Contains(jsonl.String(), typ) {
			t.Errorf("JSONL missing %s row", typ)
		}
	}
	// NaN never reaches the encoders: yields of 0 and empty sketches must
	// still produce valid JSON.
	if strings.Contains(jsonl.String(), "NaN") {
		t.Error("JSONL contains NaN")
	}
}

// TestFaultClassAxis pins the class dimension: the axis defaults to
// {"persistent"}, specs canonicalize through ParseClassSpec (so two
// spellings of the same mix coalesce), duplicates and malformed specs fail
// validation, and a real two-class campaign produces per-class cells and
// Vmin rows whose persistent slice is bit-identical to a campaign without
// the axis.
func TestFaultClassAxis(t *testing.T) {
	if cfg, err := (Config{Dies: 1}).Normalized(); err != nil {
		t.Fatal(err)
	} else if !reflect.DeepEqual(cfg.FaultClasses, []string{"persistent"}) {
		t.Fatalf("default FaultClasses = %v", cfg.FaultClasses)
	}
	if cfg, err := (Config{Dies: 1, FaultClasses: []string{"", "mixed:i=0.50@0.300"}}).Normalized(); err != nil {
		t.Fatal(err)
	} else if !reflect.DeepEqual(cfg.FaultClasses, []string{"persistent", "mixed:i=0.5@0.3"}) {
		t.Fatalf("canonical FaultClasses = %v", cfg.FaultClasses)
	}
	if _, err := (Config{Dies: 1, FaultClasses: []string{"persistent", ""}}).Normalized(); err == nil {
		t.Error("duplicate class specs (post-canonicalization) should fail validation")
	}
	if _, err := (Config{Dies: 1, FaultClasses: []string{"mixed:zzz"}}).Normalized(); err == nil {
		t.Error("malformed class spec should fail validation")
	}

	base := Config{
		Workloads:     []string{"xsbench"},
		Schemes:       []string{"killi-1:64"},
		Voltages:      []float64{0.625, 0.650},
		Dies:          2,
		Seed:          5,
		RequestsPerCU: 200,
	}
	ref, err := Run(context.Background(), base)
	if err != nil {
		t.Fatalf("persistent-only campaign: %v", err)
	}
	withAxis := base
	withAxis.FaultClasses = []string{"persistent", "mixed:i=0.4@0.3,t=2e-08"}
	res, err := Run(context.Background(), withAxis)
	if err != nil {
		t.Fatalf("two-class campaign: %v", err)
	}
	if got, want := len(res.Cells), 2*len(ref.Cells); got != want {
		t.Fatalf("two-class campaign has %d cells, want %d", got, want)
	}
	if got, want := len(res.Vmin), 2*len(ref.Vmin); got != want {
		t.Fatalf("two-class campaign has %d Vmin rows, want %d", got, want)
	}
	var persistent, mixed []Cell
	for _, c := range res.Cells {
		switch c.Classes {
		case "persistent":
			persistent = append(persistent, c)
		case "mixed:i=0.4@0.3,t=2e-08":
			mixed = append(mixed, c)
		default:
			t.Fatalf("cell with unexpected class %q", c.Classes)
		}
	}
	for i, c := range persistent {
		want := ref.Cells[i]
		want.Classes = "persistent"
		if c != want {
			t.Errorf("persistent cell %d differs with the axis present:\n got %+v\nwant %+v", i, c, want)
		}
	}
	// The mixed population must actually change the simulation and feed the
	// new aggregates: at least one cell differs, and the misclassification
	// means are live (killi schemes always classify some lines; the
	// intermittent mix makes false trust/disable plausible but the pinned
	// assertion is just that the plumbing reports something somewhere).
	differs := false
	for i := range mixed {
		if mixed[i].NormMean != persistent[i].NormMean || mixed[i].DisabledMean != persistent[i].DisabledMean ||
			mixed[i].SDCMean != persistent[i].SDCMean || mixed[i].FalseDisableMean != persistent[i].FalseDisableMean ||
			mixed[i].FalseTrustMean != persistent[i].FalseTrustMean {
			differs = true
		}
	}
	if !differs {
		t.Error("mixed-class cells are identical to persistent cells; the class axis is not reaching the simulator")
	}
}

// TestFaultClassParallelismInvariance extends the campaign's bit-identity
// contract to a mixed fault population over the real simulator.
func TestFaultClassParallelismInvariance(t *testing.T) {
	cfg := Config{
		Workloads:     []string{"xsbench"},
		Schemes:       []string{"killi-1:64"},
		FaultClasses:  []string{"mixed:i=0.3@0.5,t=2e-08"},
		Voltages:      []float64{0.625, 0.650},
		Dies:          3,
		Seed:          5,
		RequestsPerCU: 200,
	}
	serial, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	cfg.Parallelism = 3
	par, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if a, b := csvOf(t, serial), csvOf(t, par); a != b {
		t.Errorf("mixed-class campaign CSV differs between parallelism 1 and 3:\n%s\nvs\n%s", a, b)
	}
}

// YieldAt returns the yield of one (workload, scheme, voltage) cell, or
// NaN when the cell is not in the result. Voltage matches exactly (grid
// values round-trip unchanged through the config). With multiple fault
// classes in the axis it returns the first matching cell — the first
// class mix in config order.
func (r *Result) YieldAt(workloadName, scheme string, voltage float64) float64 {
	for _, c := range r.Cells {
		if c.Workload == workloadName && c.Scheme == scheme && c.Voltage == voltage {
			return c.Yield
		}
	}
	return math.NaN()
}
