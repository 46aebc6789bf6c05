package campaign

// Tests for the per-die result cache, cross-campaign prefix reuse, and
// checkpoint/resume — all pinned to the same invariant the parallelism
// tests establish: table, CSV, and JSONL output are byte-identical to a
// cold serial run no matter how the records were obtained (computed,
// cached, or replayed) or at what parallelism.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"killi/internal/faultmodel"
	"killi/internal/gpu"
	"killi/internal/protection"
	"killi/internal/simcache"
	"killi/internal/workload"
)

// countingSim wraps the stub simulator with an invocation counter and an
// optional failure injector: calls after the first `failAfter` return a
// sentinel error (failAfter <= 0 disables injection).
func countingSim(calls *atomic.Int64, failAfter int64) simFunc {
	inner := stubSim()
	return func(ctx context.Context, g gpu.Config, f protection.Factory, sf *gpu.SharedFaults, ts *workload.TraceSet, shards int) (gpu.Result, error) {
		n := calls.Add(1)
		if failAfter > 0 && n > failAfter {
			return gpu.Result{}, errInjected
		}
		return inner(ctx, g, f, sf, ts, shards)
	}
}

var errInjected = errors.New("injected mid-campaign failure")

// allOutputs renders every output format of a result as one comparable blob.
func allOutputs(t *testing.T, r *Result) string {
	t.Helper()
	var buf bytes.Buffer
	for _, format := range []string{FormatTable, FormatCSV, FormatJSONL} {
		if err := r.Write(&buf, format); err != nil {
			t.Fatalf("Write(%s): %v", format, err)
		}
		buf.WriteString("\n----\n")
	}
	return buf.String()
}

// TestWarmCampaignBitIdentical pins the tentpole: an identical re-run
// against a populated cache streams whole-die records — zero simulator
// calls, zero fault-map builds — and produces byte-identical output in
// every format at several parallelism values.
func TestWarmCampaignBitIdentical(t *testing.T) {
	const dies = 60
	dir := t.TempDir()

	var coldCalls atomic.Int64
	cold := stubConfig(dies, 1)
	cold.CacheDir = dir
	cold.runSim = countingSim(&coldCalls, 0)
	coldRes, err := Run(context.Background(), cold)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	want := allOutputs(t, coldRes)
	if coldCalls.Load() == 0 {
		t.Fatal("cold run simulated nothing")
	}
	if coldRes.CachedDies != 0 || coldRes.CellCacheHits != 0 {
		t.Fatalf("cold run reported cache activity: %d dies, %d cells", coldRes.CachedDies, coldRes.CellCacheHits)
	}

	for _, parallel := range []int{1, 4, 16} {
		var warmCalls atomic.Int64
		var faultBuilds atomic.Int64
		warm := stubConfig(dies, parallel)
		warm.CacheDir = dir
		warm.runSim = countingSim(&warmCalls, 0)
		inner := stubFaults(0)
		warm.dieFaults = func(g gpu.Config, v []float64) ([]*gpu.SharedFaults, *gpu.SharedFaults) {
			faultBuilds.Add(1)
			return inner(g, v)
		}
		res, err := Run(context.Background(), warm)
		if err != nil {
			t.Fatalf("warm run (parallel=%d): %v", parallel, err)
		}
		if got := allOutputs(t, res); got != want {
			t.Errorf("warm output (parallel=%d) differs from cold", parallel)
		}
		if warmCalls.Load() != 0 {
			t.Errorf("warm run (parallel=%d) simulated %d cells, want 0", parallel, warmCalls.Load())
		}
		if faultBuilds.Load() != 0 {
			t.Errorf("warm run (parallel=%d) built %d fault maps, want 0", parallel, faultBuilds.Load())
		}
		if res.CachedDies != dies {
			t.Errorf("warm run (parallel=%d) CachedDies = %d, want %d", parallel, res.CachedDies, dies)
		}
	}
}

// TestPrefixSharedCampaign pins cross-campaign reuse: a campaign extending
// an earlier one's voltage grid upward misses the whole-die records (the
// axes changed) but hits every shared cell, simulating only the new
// voltages — and its output is byte-identical to a cold run of the same
// extended campaign.
func TestPrefixSharedCampaign(t *testing.T) {
	const dies = 40
	shared := []float64{0.550, 0.575, 0.600, 0.625, 0.650, 0.675, 0.700}
	extended := append(append([]float64(nil), shared...), 0.725)

	// Reference: the extended campaign, cold, no cache.
	refCfg := stubConfig(dies, 1)
	refCfg.Voltages = extended
	ref, err := Run(context.Background(), refCfg)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	want := allOutputs(t, ref)

	dir := t.TempDir()
	seedCfg := stubConfig(dies, 4)
	seedCfg.Voltages = shared
	seedCfg.CacheDir = dir
	if _, err := Run(context.Background(), seedCfg); err != nil {
		t.Fatalf("seeding run: %v", err)
	}

	for i, parallel := range []int{1, 4, 16} {
		var calls atomic.Int64
		cfg := stubConfig(dies, parallel)
		cfg.Voltages = extended
		cfg.CacheDir = dir
		cfg.runSim = countingSim(&calls, 0)
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("extended run (parallel=%d): %v", parallel, err)
		}
		if got := allOutputs(t, res); got != want {
			t.Errorf("extended output (parallel=%d) differs from cold reference", parallel)
		}
		if i == 0 {
			// First extended pass: the whole-die records miss (the axes
			// changed), the baseline and every shared voltage are per-cell
			// hits, and only the one new grid point per (die, scheme)
			// simulates.
			newCells := int64(dies * len(cfg.Schemes))
			if calls.Load() != newCells {
				t.Errorf("extended run simulated %d cells, want %d (new voltages only)", calls.Load(), newCells)
			}
			wantHits := int64(dies * (1 + len(cfg.Schemes)*len(shared))) // baseline + shared cells
			if res.CellCacheHits != wantHits {
				t.Errorf("extended run CellCacheHits = %d, want %d", res.CellCacheHits, wantHits)
			}
		} else {
			// The first pass rewrote whole-die records under the extended
			// axes; later passes are pure die hits.
			if res.CachedDies != dies {
				t.Errorf("re-run (parallel=%d) CachedDies = %d, want %d", parallel, res.CachedDies, dies)
			}
			if calls.Load() != 0 {
				t.Errorf("re-run (parallel=%d) simulated %d cells, want 0", parallel, calls.Load())
			}
		}
	}
}

// TestCorruptedDieEntryRecomputedMidCampaign pins the repair contract: a
// corrupted whole-die cache entry is silently recomputed during a warm
// campaign — the other dies still stream from cache, the aggregate is
// unpoisoned (byte-identical output), and the entry is repaired in place.
func TestCorruptedDieEntryRecomputedMidCampaign(t *testing.T) {
	const dies = 24
	dir := t.TempDir()
	cfg := stubConfig(dies, 1)
	cfg.CacheDir = dir
	cold, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	want := allOutputs(t, cold)

	// Corrupt die 7's whole-die entry (flip a payload byte, keeping it
	// parseable) and truncate die 13's.
	norm, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	for die, mangle := range map[int]func([]byte) []byte{
		7:  func(b []byte) []byte { return bytes.Replace(b, []byte(`"die": 7`), []byte(`"die": 8`), 1) },
		13: func(b []byte) []byte { return b[:len(b)/3] },
	} {
		path := filepath.Join(dir, norm.dieKey(die)+".json")
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("die %d entry: %v", die, err)
		}
		if err := os.WriteFile(path, mangle(buf), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var calls atomic.Int64
	warm := stubConfig(dies, 4)
	warm.CacheDir = dir
	warm.runSim = countingSim(&calls, 0)
	res, err := Run(context.Background(), warm)
	if err != nil {
		t.Fatalf("warm run over corrupted entries: %v", err)
	}
	if got := allOutputs(t, res); got != want {
		t.Error("corrupted-entry warm run diverged from cold output")
	}
	if res.CachedDies != dies-2 {
		t.Errorf("CachedDies = %d, want %d (two corrupted entries recomputed)", res.CachedDies, dies-2)
	}
	// The recomputed dies' cells were cached per-cell by the cold run, so
	// repair costs cell reads, not simulations.
	if calls.Load() != 0 {
		t.Errorf("repair simulated %d cells, want 0 (per-cell entries intact)", calls.Load())
	}

	// Both entries must now be repaired: a third run is fully warm.
	third := stubConfig(dies, 1)
	third.CacheDir = dir
	res3, err := Run(context.Background(), third)
	if err != nil {
		t.Fatal(err)
	}
	if res3.CachedDies != dies {
		t.Errorf("after repair CachedDies = %d, want %d", res3.CachedDies, dies)
	}
}

// interruptedCheckpoint runs a campaign that fails its cells past the
// failAfter-th simulation and returns how many dies its checkpoint holds.
// The interruption waits until die 0's record is merged, and die 0's own
// cells never fail, so the checkpoint always holds a merged prefix: at 16
// workers a failure counted by calls alone could cancel the campaign
// before die 0 finished, leaving only the header.
func interruptedCheckpoint(t *testing.T, ckptDir string, dies, parallel int, failAfter int64) int {
	t.Helper()
	cfg := stubConfig(dies, parallel)
	cfg.CheckpointDir = ckptDir
	norm, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	path := checkpointPath(ckptDir, simcache.Key(norm.axesDesc()))
	records := func() int {
		buf, _ := os.ReadFile(path)
		return strings.Count(string(buf), "\n") - 1
	}
	die0 := faultmodel.DieSeed(norm.Seed, 0)
	var calls atomic.Int64
	inner := stubSim()
	cfg.runSim = func(ctx context.Context, g gpu.Config, f protection.Factory, sf *gpu.SharedFaults, ts *workload.TraceSet, shards int) (gpu.Result, error) {
		if calls.Add(1) > failAfter && g.FaultSeed != die0 {
			for deadline := time.Now().Add(10 * time.Second); records() < 1 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			return gpu.Result{}, errInjected
		}
		return inner(ctx, g, f, sf, ts, shards)
	}
	if _, err := Run(context.Background(), cfg); !errors.Is(err, errInjected) {
		t.Fatalf("interrupted run returned %v, want injected failure", err)
	}
	n := records()
	if n < 1 {
		t.Fatalf("checkpoint holds %d records, want at least one", n)
	}
	return n
}

// TestResumeBitIdentical pins checkpoint/resume: a campaign killed mid-run
// restarts from its checkpoint — replaying the completed prefix, computing
// only the remainder — with output byte-identical to an uninterrupted run,
// at several parallelism values on both sides of the interruption.
func TestResumeBitIdentical(t *testing.T) {
	const dies = 48
	ref, err := Run(context.Background(), stubConfig(dies, 1))
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	want := allOutputs(t, ref)

	cells := int64(1 + 2*8) // per die: baseline + schemes x voltages
	for _, tc := range []struct{ interruptedP, resumedP int }{
		{1, 1}, {1, 16}, {4, 1}, {4, 4}, {16, 4},
	} {
		tc := tc
		t.Run(fmt.Sprintf("p%d_resume_p%d", tc.interruptedP, tc.resumedP), func(t *testing.T) {
			dir := t.TempDir()
			done := interruptedCheckpoint(t, dir, dies, tc.interruptedP, cells*(dies/3))
			if done == 0 || done >= dies {
				t.Fatalf("checkpoint holds %d dies, want a strict mid-run prefix", done)
			}
			var calls atomic.Int64
			cfg := stubConfig(dies, tc.resumedP)
			cfg.CheckpointDir = dir
			cfg.Resume = true
			cfg.runSim = countingSim(&calls, 0)
			res, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if got := allOutputs(t, res); got != want {
				t.Error("resumed output differs from uninterrupted run")
			}
			if res.ResumedDies != done {
				t.Errorf("ResumedDies = %d, want %d", res.ResumedDies, done)
			}
			if wantCalls := cells * int64(dies-done); calls.Load() != wantCalls {
				t.Errorf("resumed run simulated %d cells, want %d (remainder only)", calls.Load(), wantCalls)
			}

			// Resuming the now-complete checkpoint computes nothing.
			var again atomic.Int64
			cfg2 := stubConfig(dies, tc.resumedP)
			cfg2.CheckpointDir = dir
			cfg2.Resume = true
			cfg2.runSim = countingSim(&again, 0)
			res2, err := Run(context.Background(), cfg2)
			if err != nil {
				t.Fatalf("second resume: %v", err)
			}
			if got := allOutputs(t, res2); got != want {
				t.Error("fully-resumed output differs")
			}
			if again.Load() != 0 || res2.ResumedDies != dies {
				t.Errorf("full resume simulated %d cells, ResumedDies = %d; want 0 and %d", again.Load(), res2.ResumedDies, dies)
			}
		})
	}
}

// TestTornCheckpointTailTruncated pins SIGKILL tolerance: a checkpoint
// whose final line was torn mid-write (no trailing newline, invalid JSON)
// resumes from the valid prefix and still matches the uninterrupted output.
func TestTornCheckpointTailTruncated(t *testing.T) {
	const dies = 30
	ref, err := Run(context.Background(), stubConfig(dies, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := allOutputs(t, ref)

	dir := t.TempDir()
	done := interruptedCheckpoint(t, dir, dies, 4, int64((1+2*8)*(dies/2)))

	cfg := stubConfig(dies, 1)
	norm, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	path := checkpointPath(dir, simcache.Key(norm.axesDesc()))
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A record a killed writer got halfway through: valid-looking JSON
	// prefix, no newline.
	if _, err := f.WriteString(`{"die":9999,"base":[123`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cfg.CheckpointDir = dir
	cfg.Resume = true
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("resume over torn tail: %v", err)
	}
	if got := allOutputs(t, res); got != want {
		t.Error("torn-tail resume diverged from uninterrupted output")
	}
	if res.ResumedDies != done {
		t.Errorf("ResumedDies = %d, want %d (torn tail dropped)", res.ResumedDies, done)
	}
}

// TestCheckpointAxesMismatchStartsFresh pins the isolation property: a
// resume whose axes differ from the checkpoint's opens a different journal
// (the name is the axes digest), so records are never mixed across
// incompatible campaigns.
func TestCheckpointAxesMismatchStartsFresh(t *testing.T) {
	const dies = 12
	dir := t.TempDir()
	a := stubConfig(dies, 1)
	a.CheckpointDir = dir
	if _, err := Run(context.Background(), a); err != nil {
		t.Fatal(err)
	}

	// Same checkpoint dir, different seed: must compute everything.
	var calls atomic.Int64
	b := stubConfig(dies, 1)
	b.Seed = 99
	b.CheckpointDir = dir
	b.Resume = true
	b.runSim = countingSim(&calls, 0)
	res, err := Run(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedDies != 0 {
		t.Errorf("ResumedDies = %d under different axes, want 0", res.ResumedDies)
	}
	if calls.Load() == 0 {
		t.Error("different-axes resume simulated nothing")
	}
	entries, err := filepath.Glob(filepath.Join(dir, "campaign-*.jsonl"))
	if err != nil || len(entries) != 2 {
		t.Fatalf("want two distinct checkpoint files, got %v (err %v)", entries, err)
	}
}

// TestCacheAndCheckpointCompose pins the combined path killi-fleet wires:
// -cache plus -checkpoint on the same run, resumed with both, stays
// byte-identical and counts cached/resumed dies disjointly.
func TestCacheAndCheckpointCompose(t *testing.T) {
	const dies = 36
	ref, err := Run(context.Background(), stubConfig(dies, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := allOutputs(t, ref)

	cacheDir, ckptDir := t.TempDir(), t.TempDir()
	var calls atomic.Int64
	cfg := stubConfig(dies, 4)
	cfg.CacheDir = cacheDir
	cfg.CheckpointDir = ckptDir
	cfg.runSim = countingSim(&calls, int64((1+2*8)*(dies/3)))
	if _, err := Run(context.Background(), cfg); !errors.Is(err, errInjected) {
		t.Fatalf("interrupted run returned %v", err)
	}

	resumed := stubConfig(dies, 4)
	resumed.CacheDir = cacheDir
	resumed.CheckpointDir = ckptDir
	resumed.Resume = true
	res, err := Run(context.Background(), resumed)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if got := allOutputs(t, res); got != want {
		t.Error("cache+checkpoint resume diverged from cold output")
	}
	if res.ResumedDies == 0 {
		t.Error("nothing resumed from the checkpoint")
	}
	if res.ResumedDies+res.CachedDies > dies {
		t.Errorf("ResumedDies (%d) + CachedDies (%d) exceed %d dies", res.ResumedDies, res.CachedDies, dies)
	}
}
