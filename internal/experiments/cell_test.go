package experiments

import (
	"context"
	"os"
	"testing"

	"killi/internal/faultmodel"
	"killi/internal/gpu"
	"killi/internal/obs"
	"killi/internal/simcache"
)

// observedRun is the observed single run killi-sim and simserver make: the
// pair's Cell, evaluated with o attached.
func observedRun(ctx context.Context, cfg Config, workloadName, schemeName string, voltage float64, o obs.Observer) (gpu.Result, error) {
	c, err := cfg.Cell(workloadName, schemeName, voltage)
	if err != nil {
		return gpu.Result{}, err
	}
	res, _, err := c.Eval(ctx, nil, Sim{Shards: cfg.Shards, Observer: o})
	return res, err
}

// TestCellKeyPinned pins Cell.Key byte for byte to the digests the cache
// held before Cell existed — a sweep cell, a campaign cell under a mixed
// class spec, and a scrubbing cell — so every entry already on disk stays
// reachable. The two cells that do not scrub must also key as CellKey, the
// benchmark's spelling of the same address, and Config.Cell must build the
// sweep's cell for the same inputs.
func TestCellKeyPinned(t *testing.T) {
	spec, err := faultmodel.ParseClassSpec("mixed:i=0.5@0.3")
	if err != nil {
		t.Fatal(err)
	}
	sweep := gpu.DefaultConfig()
	sweep.Voltage = 0.625
	camp := gpu.DefaultConfig()
	camp.FaultSeed = faultmodel.DieSeed(7, 3)
	camp.RefVoltage = 0.575
	camp.Voltage = 0.6
	camp.Classes = spec
	scrub := gpu.DefaultConfig()
	scrub.Voltage = 0.6
	scrub.Classes = spec

	cases := []struct {
		name string
		cell Cell
		want string
	}{
		{"sweep", Cell{GPU: sweep, Scheme: "killi-1:64", Workload: "xsbench", Seed: 1, Requests: 4000, Warmup: 2},
			"a53f92c9ee12ef4ad227e026dc5059cf5b1e8ac8037497675b0cf7bf040f40a5"},
		{"campaign", Cell{GPU: camp, Scheme: "msecc", Workload: "fft", Seed: 7, Requests: 2000, Warmup: 1},
			"f9effe20ed48394290f96c50bc06684854be3e6de5c6e9fbae29366c35d2ef15"},
		{"scrub", Cell{GPU: scrub, Scheme: "killi-1:16", Workload: "nekbone", Seed: 3, Requests: 2500, Warmup: 3, Scrub: 2},
			"c5ea3b1e43fcc0b9b5e5f714c7b11c71f82d28bd2478a623d20f71a71d9247c5"},
	}
	for _, tc := range cases {
		c := tc.cell
		if got := c.Key(); got != tc.want {
			t.Errorf("%s cell key = %s, want %s", tc.name, got, tc.want)
		}
		if c.Scrub == 0 {
			if got := CellKey(c.GPU, c.Scheme, c.Workload, c.Seed, c.Requests, c.Warmup); got != tc.want {
				t.Errorf("%s CellKey = %s, want %s", tc.name, got, tc.want)
			}
		}
	}
	c, err := Config{WarmupKernels: 2}.Cell("xsbench", "killi-1:64", 0.625)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Key(); got != cases[0].want {
		t.Errorf("Config.Cell's sweep cell keys as %s, want %s", got, cases[0].want)
	}
}

// TestObservedEvalLeavesStoreUntouched pins that watching a run never
// changes the cache: over a warm store, an observed Eval simulates (no
// hit), returns the unobserved scalars, and leaves the store's hit and miss
// counts and its directory exactly as they were.
func TestObservedEvalLeavesStoreUntouched(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	store, err := simcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Config{RequestsPerCU: 300, GPU: smallGPU()}.Cell("xsbench", "killi-1:64", 0.625)
	if err != nil {
		t.Fatal(err)
	}
	cold, hit, err := c.Eval(ctx, store, Sim{})
	if err != nil || hit {
		t.Fatalf("cold Eval: hit=%v err=%v", hit, err)
	}
	if _, hit, err := c.Eval(ctx, store, Sim{}); err != nil || !hit {
		t.Fatalf("warm Eval: hit=%v err=%v, want a hit", hit, err)
	}

	type snap struct {
		hits, misses int64
		files        map[string]string
	}
	snapshot := func() snap {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		s := snap{hits: store.Hits(), misses: store.Misses(), files: map[string]string{}}
		for _, e := range entries {
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			s.files[e.Name()] = info.ModTime().String() + "/" + info.Mode().String()
		}
		return s
	}
	before := snapshot()
	col := obs.NewCollector()
	observed, hit, err := c.Eval(ctx, store, Sim{Observer: col})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("observed Eval was served from the store; it must simulate")
	}
	if len(col.Epochs()) == 0 {
		t.Fatal("observer saw no epochs")
	}
	after := snapshot()
	if after.hits != before.hits || after.misses != before.misses {
		t.Errorf("observed Eval moved the store's counts: hits %d→%d, misses %d→%d",
			before.hits, after.hits, before.misses, after.misses)
	}
	if len(after.files) != len(before.files) {
		t.Errorf("observed Eval changed the cache directory: %d entries → %d", len(before.files), len(after.files))
	}
	for name, stamp := range before.files {
		if after.files[name] != stamp {
			t.Errorf("observed Eval touched %s", name)
		}
	}
	if CacheableResult(observed) != CacheableResult(cold) {
		t.Errorf("observed result %+v differs from the unobserved %+v", CacheableResult(observed), CacheableResult(cold))
	}
}
