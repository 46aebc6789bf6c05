package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"killi/internal/gpu"
	"killi/internal/simcache"
)

// cacheTestConfig is a small but non-trivial sweep: two workloads, a warmup
// kernel, and a parallel worker pool writing the cache concurrently. Every
// field that feeds the cache key is set explicitly so tests can reconstruct
// task keys.
func cacheTestConfig(dir string) Config {
	return Config{
		Voltage:       0.625,
		RequestsPerCU: 400,
		Seed:          1,
		Workloads:     []string{"xsbench", "nekbone"},
		WarmupKernels: 1,
		Parallelism:   2,
		CacheDir:      dir,
	}
}

// formatRows renders sweep rows with every float at %.17g — the
// bit-identity format of the repo's golden harnesses.
func formatRows(rows []Row) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%s class=%v base_cycles=%d base_mpki=%.17g\n",
			r.Workload, r.Class, r.BaselineCycles, r.BaselineMPKI)
		for _, n := range r.SchemeNames() {
			fmt.Fprintf(&b, "  %s norm=%.17g mpki=%.17g disabled=%d\n",
				n, r.Normalized[n], r.MPKI[n], r.Disabled[n])
		}
	}
	return b.String()
}

func TestWarmRowsBitIdenticalToCold(t *testing.T) {
	dir := t.TempDir()
	cfg := cacheTestConfig(dir)

	uncached := cfg
	uncached.CacheDir = ""
	ref, err := Run(context.Background(), uncached)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	refS, coldS, warmS := formatRows(ref), formatRows(cold), formatRows(warm)
	if coldS != refS {
		t.Errorf("cold cached rows diverge from uncached rows:\n%s\nvs\n%s", coldS, refS)
	}
	if warmS != refS {
		t.Errorf("warm cached rows diverge from uncached rows:\n%s\nvs\n%s", warmS, refS)
	}

	// The cold run must have persisted one entry per task.
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	wantTasks := len(cfg.Workloads) * (len(Schemes()) + 1)
	if len(files) != wantTasks {
		t.Fatalf("cache holds %d entries, want %d (one per task)", len(files), wantTasks)
	}
}

// TestWarmRunIsServedFromCache proves the warm run reads results from the
// store rather than recomputing: a hand-planted entry (valid checksum,
// fabricated cycle count) must surface in the returned rows.
func TestWarmRunIsServedFromCache(t *testing.T) {
	dir := t.TempDir()
	cfg := cacheTestConfig(dir)
	cold, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Overwrite the dected/xsbench entry with double the true cycle count.
	g := gpu.DefaultConfig()
	g.Voltage = cfg.Voltage
	key := Cell{GPU: g, Scheme: "dected", Workload: "xsbench", Seed: cfg.Seed,
		Requests: cfg.RequestsPerCU, Warmup: cfg.WarmupKernels}.Key()
	store, err := simcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Get(key); !ok {
		t.Fatal("reconstructed task key not present in cache: Cell.Key drifted")
	}
	var base uint64
	for _, r := range cold {
		if r.Workload == "xsbench" {
			base = r.BaselineCycles
		}
	}
	if err := store.Put(key, simcache.Result{Cycles: 2 * base, Instructions: 1000}); err != nil {
		t.Fatal(err)
	}

	warm, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range warm {
		if r.Workload != "xsbench" {
			continue
		}
		if got := r.Normalized["dected"]; got != 2.0 {
			t.Fatalf("planted cache entry not served: normalized = %v, want 2.0", got)
		}
	}
}

func TestCorruptedEntriesRecomputed(t *testing.T) {
	dir := t.TempDir()
	cfg := cacheTestConfig(dir)
	cold, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt every entry in place: truncated JSON must be detected by the
	// store and recomputed, reproducing the rows bit-identically.
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no cache entries to corrupt (err %v)", err)
	}
	for _, f := range files {
		if err := os.WriteFile(f, []byte(`{"schema":`), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	recomputed, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := formatRows(recomputed), formatRows(cold); got != want {
		t.Errorf("recomputed rows diverge from original:\n%s\nvs\n%s", got, want)
	}
}

func TestCacheDirCreateFailureSurfaces(t *testing.T) {
	// A path that collides with an existing file cannot become a cache
	// directory; the sweep must report it rather than silently disable
	// caching the user asked for.
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := cacheTestConfig(filepath.Join(file, "cache"))
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("Run with an unusable cache directory succeeded")
	}
}
