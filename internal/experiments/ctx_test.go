package experiments

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"killi/internal/obs"
)

// cancelConfig is a small but multi-task sweep so cancellation lands while
// work is genuinely in flight.
func cancelConfig(dir string, parallel int) Config {
	return Config{
		Voltage:       0.625,
		RequestsPerCU: 400,
		Seed:          1,
		Workloads:     []string{"xsbench", "nekbone"},
		GPU:           smallGPU(),
		Parallelism:   parallel,
		CacheDir:      dir,
	}
}

// TestRunCancellation pins the interrupted-sweep contract: cancelling the
// context mid-sweep returns ctx.Err() (not partial rows), drains the worker
// pool, and leaves no simcache "put-*" temp files behind — including ones
// stranded by an earlier crashed writer.
func TestRunCancellation(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		dir := t.TempDir()
		// A stranded temp file from a hypothetical earlier crash: the
		// cancellation path must sweep it too.
		if err := os.WriteFile(filepath.Join(dir, "put-stranded"), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cfg := cancelConfig(dir, parallel)
		// Cancel as soon as the first task completes, so later tasks are
		// still pending or in flight.
		cfg.Progress = func(done, total int) {
			if done == 1 {
				cancel()
			}
		}
		rows, err := Run(ctx, cfg)
		cancel()
		if err != context.Canceled {
			t.Fatalf("parallel=%d: Run returned %v, want context.Canceled", parallel, err)
		}
		if rows != nil {
			t.Fatalf("parallel=%d: cancelled Run returned partial rows", parallel)
		}
		leftovers, globErr := filepath.Glob(filepath.Join(dir, "put-*"))
		if globErr != nil || len(leftovers) != 0 {
			t.Fatalf("parallel=%d: temp files left after cancellation: %v (err %v)",
				parallel, leftovers, globErr)
		}
	}
}

// TestRunCancelledBeforeStart pins the fast path: an already-cancelled
// context runs zero simulations.
func TestRunCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := cancelConfig(t.TempDir(), 2)
	calls := 0
	cfg.Progress = func(done, total int) { calls++ }
	if _, err := Run(ctx, cfg); err != context.Canceled {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if calls != 0 {
		t.Fatalf("%d tasks ran under a pre-cancelled context, want 0", calls)
	}
}

// TestRunOneCancellation covers the single-run entry points.
func TestRunOneCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{RequestsPerCU: 200, GPU: smallGPU()}
	newScheme, err := SchemeFactoryByName("killi-1:64")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunOne(ctx, cfg, "xsbench", newScheme, 0.625); err != context.Canceled {
		t.Fatalf("RunOne = %v, want context.Canceled", err)
	}
	if _, err := RunOneNamed(ctx, cfg, "xsbench", "killi-1:64", 0.625); err != context.Canceled {
		t.Fatalf("RunOneNamed = %v, want context.Canceled", err)
	}
	if _, err := observedRun(ctx, cfg, "xsbench", "killi-1:64", 0.625, obs.NewCollector()); err != context.Canceled {
		t.Fatalf("observed run = %v, want context.Canceled", err)
	}
}

// TestRunOneNamedCacheRoundTrip pins RunOneNamed's cache semantics: the
// cold call computes (Counters attached) and persists, the warm call is
// served from disk (no Counters, scalars bit-identical), and the key is the
// sweep's per-task key, so a prior Run warms RunOneNamed.
func TestRunOneNamedCacheRoundTrip(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	cfg := Config{RequestsPerCU: 300, Seed: 1, GPU: smallGPU(), CacheDir: dir}

	cold, err := RunOneNamed(ctx, cfg, "xsbench", "killi-1:64", 0.625)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Counters == nil {
		t.Fatal("cold RunOneNamed result has no Counters — did it not simulate?")
	}
	warm, err := RunOneNamed(ctx, cfg, "xsbench", "killi-1:64", 0.625)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Counters != nil {
		t.Fatal("warm RunOneNamed carries Counters — it recomputed instead of hitting the cache")
	}
	cold.Counters = nil
	// Sched, like Counters, is not round-tripped: it describes how the cold
	// run was scheduled (and depends on the shard count, which the cache key
	// deliberately excludes), not what the simulation computed.
	cold.Sched = warm.Sched
	if warm != cold {
		t.Fatalf("warm result diverges from cold: warm %+v, cold %+v", warm, cold)
	}

	// Unknown names fail fast, before any simulation or cache I/O.
	if _, err := RunOneNamed(ctx, cfg, "xsbench", "nope", 0.625); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, err := RunOneNamed(ctx, cfg, "nope", "killi-1:64", 0.625); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestSweepWarmsRunOneNamed pins the shared key space: after a cached
// sweep, a RunOneNamed with the same per-task inputs is a pure cache hit.
func TestSweepWarmsRunOneNamed(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	cfg := Config{
		Voltage:       0.625,
		RequestsPerCU: 300,
		Seed:          1,
		Workloads:     []string{"xsbench"},
		GPU:           smallGPU(),
		CacheDir:      dir,
	}
	rows, err := Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunOneNamed(ctx, cfg, "xsbench", "killi-1:64", cfg.Voltage)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters != nil {
		t.Fatal("RunOneNamed after a cached sweep recomputed instead of hitting the sweep's entry")
	}
	if got, want := res.MPKI(), rows[0].MPKI["killi-1:64"]; got != want {
		t.Fatalf("cache-served MPKI %v diverges from the sweep row %v", got, want)
	}
}

// TestProgressConcurrent drives the parallel sweep's Progress callback and
// obs.Metrics.TaskDone together under the race detector (CI runs this
// package with -race): every cumulative count 1..total must be reported
// exactly once, in strictly increasing order — Progress runs in task order
// on one goroutine — and the metrics document must land on done == total.
func TestProgressConcurrent(t *testing.T) {
	m := obs.NewMetrics()
	var mu sync.Mutex
	seen := map[int]int{}
	var order []int
	var total int
	cfg := cancelConfig("", 4)
	cfg.Progress = func(done, tot int) {
		m.TaskDone(done, tot)
		mu.Lock()
		seen[done]++
		order = append(order, done)
		total = tot
		mu.Unlock()
	}
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("Progress never ran")
	}
	for d := 1; d <= total; d++ {
		if seen[d] != 1 {
			t.Fatalf("cumulative count %d reported %d times, want exactly once", d, seen[d])
		}
	}
	if len(seen) != total {
		t.Fatalf("%d distinct counts reported, want %d", len(seen), total)
	}
	for i := 1; i < len(order); i++ {
		if order[i] <= order[i-1] {
			t.Fatalf("done counts arrived out of order: %v", order)
		}
	}
}

// TestValidateFlags covers the up-front CLI validation shared by killi-sim
// and killi-simd.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name                                 string
		requests, parallel, shards, maxProcs int
		ok                                   bool
	}{
		{"defaults", 12000, -1, 1, 8, true},
		{"explicit parallel", 4000, 4, 2, 8, true},
		{"zero requests", 0, -1, 1, 8, false},
		{"negative requests", -5, -1, 1, 8, false},
		{"zero shards", 4000, -1, 0, 8, false},
		{"negative shards", 4000, -1, -2, 8, false},
		{"zero parallel", 4000, 0, 1, 8, false},
		{"parallel below -1", 4000, -3, 1, 8, false},
		{"8x budget is allowed", 4000, 16, 4, 8, true},
		{"over 8x budget", 4000, 32, 4, 8, false},
		{"single core small shards ok", 4000, 1, 8, 1, true},
		{"single core oversubscribed", 4000, 3, 8, 1, false},
		{"product wraps to zero", 1, 1 << 32, 1 << 32, 2, false},
		{"shards alone over budget", 4000, 1, 17, 2, false},
	}
	for _, c := range cases {
		err := ValidateFlags(c.requests, c.parallel, c.shards, c.maxProcs)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error: %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: combination accepted, want error", c.name)
		}
	}
}
