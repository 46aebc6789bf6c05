package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"
	"time"

	"killi/internal/engine"
	"killi/internal/gpu"
	"killi/internal/killi"
	"killi/internal/obs"
	"killi/internal/protection"
	"killi/internal/simcache"
)

// TestGoldenCounterDigest hashes every counter name and value after a short
// fixed-seed Killi run and compares against the digest captured on the
// string-keyed, container/heap, rehash-per-hit implementation, proving the
// interned-counter / typed-heap / content-model rewrite changed no
// statistic. The exact Result fields are pinned alongside.
func TestGoldenCounterDigest(t *testing.T) {
	res, err := RunOne(context.Background(), Config{RequestsPerCU: 800, Seed: 1}, "xsbench",
		func() protection.Scheme { return killi.New(killi.Config{Ratio: 64}) }, 0.625)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, n := range res.Counters.Names() {
		fmt.Fprintf(h, "%s=%d\n", n, res.Counters.Get(n))
	}
	const want = uint64(0x6cdf00dbcf931efb)
	if got := h.Sum64(); got != want {
		for _, n := range res.Counters.Names() {
			t.Logf("%s=%d", n, res.Counters.Get(n))
		}
		t.Fatalf("counter digest = %#x, want %#x (a statistic changed)", got, want)
	}
	if res.Cycles != 26032 || res.Instructions != 12800 ||
		res.L2Misses != 5796 || res.L2Accesses != 6361 ||
		res.MemAccesses != 5796 || res.DisabledLines != 2 {
		t.Fatalf("result fields diverged from golden: cycles=%d instrs=%d l2miss=%d l2acc=%d mem=%d disabled=%d",
			res.Cycles, res.Instructions, res.L2Misses, res.L2Accesses,
			res.MemAccesses, res.DisabledLines)
	}
}

// TestGoldenVariantDigest pins the Killi variants TestGoldenCounterDigest
// does not cover — the §5.2 DECTED extension, §5.5's OLSC mode and §5.6.2
// inverted training — on the same run: a digest of every counter, and the
// Result fields. The three share one DFH classifier with killi-1:64, so a
// change to a transition that only one variant reaches shows here.
func TestGoldenVariantDigest(t *testing.T) {
	cases := []struct {
		name     string
		cfg      killi.Config
		counters uint64
		result   simcache.Result
	}{
		{"killi-dected-1:64", killi.Config{Ratio: 64, UseDECTED: true}, 0xc12453f6b85f8c5f,
			simcache.Result{Cycles: 26032, Instructions: 12800, L2Misses: 5796, L2Accesses: 6361, MemAccesses: 5796,
				MisclassLines: 32768, TrueFaulty: 1274, MisclassInitial: 27541, FalseTrust: 7}},
		{"killi-olsc2-1:64", killi.Config{Ratio: 64, OLSCStrength: 2}, 0xdafa62bdb10a5e1d,
			simcache.Result{Cycles: 27824, Instructions: 12800, L2Misses: 6211, L2Accesses: 6361, MemAccesses: 6211,
				DisabledLines: 296, MisclassLines: 32768, TrueFaulty: 1274, MisclassDisabled: 296,
				MisclassInitial: 27246, FalseDisable: 296, FalseTrust: 7}},
		{"killi-1:64+inverted", killi.Config{Ratio: 64, InvertedTraining: true}, 0x12d6064ad586cc36,
			simcache.Result{Cycles: 26032, Instructions: 12800, L2Misses: 5796, L2Accesses: 6361, MemAccesses: 5796,
				DisabledLines: 4, MisclassLines: 32768, TrueFaulty: 1274, MisclassDisabled: 4, MisclassInitial: 27541}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunOne(context.Background(), Config{RequestsPerCU: 800, Seed: 1}, "xsbench",
				func() protection.Scheme { return killi.New(tc.cfg) }, 0.625)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			for _, n := range res.Counters.Names() {
				fmt.Fprintf(h, "%s=%d\n", n, res.Counters.Get(n))
			}
			if got := h.Sum64(); got != tc.counters {
				for _, n := range res.Counters.Names() {
					t.Logf("%s=%d", n, res.Counters.Get(n))
				}
				t.Errorf("counter digest = %#x, want %#x (a statistic changed)", got, tc.counters)
			}
			if got := CacheableResult(res); got != tc.result {
				t.Errorf("result fields = %#v, want %#v", got, tc.result)
			}
		})
	}
}

// TestGoldenCounterDigestObserved repeats the golden run with a Collector
// attached and demands the identical digest and Result fields: attaching an
// observer must never perturb the simulated machine (sampling only reads
// state; daemon ticker events never affect non-daemon ordering). It then
// sanity-checks what the collector saw.
func TestGoldenCounterDigestObserved(t *testing.T) {
	col := obs.NewCollector()
	res, err := observedRun(context.Background(), Config{RequestsPerCU: 800, Seed: 1}, "xsbench", "killi-1:64", 0.625, col)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, n := range res.Counters.Names() {
		fmt.Fprintf(h, "%s=%d\n", n, res.Counters.Get(n))
	}
	const want = uint64(0x6cdf00dbcf931efb)
	if got := h.Sum64(); got != want {
		t.Fatalf("observed-run counter digest = %#x, want %#x (observation perturbed the simulation)", got, want)
	}
	if res.Cycles != 26032 || res.DisabledLines != 2 {
		t.Fatalf("observed-run result diverged: cycles=%d disabled=%d", res.Cycles, res.DisabledLines)
	}

	// The collector's view must agree with the simulator's own statistics.
	if len(col.Resets()) == 0 {
		t.Fatal("collector recorded no DFH reset")
	}
	if got := col.Populations()[obs.StateDisabled]; got != res.DisabledLines {
		t.Fatalf("collector disabled population %d, want %d", got, res.DisabledLines)
	}
	eps := col.Epochs()
	if len(eps) == 0 {
		t.Fatal("collector recorded no epochs")
	}
	var accs, instrs uint64
	lastCycle := uint64(0)
	for i, e := range eps {
		if e.Cycle < lastCycle {
			t.Fatalf("epoch %d cycle %d precedes previous %d", i, e.Cycle, lastCycle)
		}
		lastCycle = e.Cycle
		accs += e.L2Accesses
		instrs += e.Instructions
		if sum := e.DFH[0] + e.DFH[1] + e.DFH[2] + e.DFH[3]; sum != col.Lines() {
			t.Fatalf("epoch %d DFH populations sum to %d, want %d lines", i, sum, col.Lines())
		}
	}
	// Epoch deltas must tile the run exactly: summed L2 accesses and
	// instructions equal the run totals (final partial epoch included).
	if accs != res.L2Accesses {
		t.Fatalf("summed epoch L2 accesses %d, want %d", accs, res.L2Accesses)
	}
	if instrs != res.Instructions {
		t.Fatalf("summed epoch instructions %d, want %d", instrs, res.Instructions)
	}
	if last := eps[len(eps)-1]; last.Cycle != res.Cycles {
		t.Fatalf("final flush sampled at cycle %d, want run end %d", last.Cycle, res.Cycles)
	}
}

// TestGoldenSoftErrorDigest pins the simulator's soft-error semantics: the
// counters and result scalars of fixed-seed runs, unprotected and under
// Killi, with a mixed fault-class spec whose transient strikes flip
// resident lines between accesses. The Killi digest was captured while
// soft flips still rewrote the stored payload and the bank kept a second
// copy of every line as SDC ground truth; the sparse flip overlay that
// replaced both must reproduce it bit for bit.
func TestGoldenSoftErrorDigest(t *testing.T) {
	mixed := Config{
		FaultClasses:  "mixed:i=0.2@0.5,a=0.1@0.5,t=1e-7",
		WarmupKernels: 2, ScrubKernels: 1}
	cases := []struct {
		name   string
		scheme string
		want   uint64
	}{
		{"none/mixed", "none", 0xb86144a10bccbf1c},
		{"killi/mixed", "killi-1:64", 0xdba84646bfbe4443},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := mixed
			cfg.RequestsPerCU, cfg.Seed = 1500, 1
			newScheme, err := SchemeFactoryByName(tc.scheme)
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunOne(context.Background(), cfg, "xsbench", newScheme, 0.625)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			for _, n := range res.Counters.Names() {
				fmt.Fprintf(h, "%s=%d\n", n, res.Counters.Get(n))
			}
			fmt.Fprintf(h, "%+v\n", CacheableResult(res))
			if got := h.Sum64(); got != tc.want {
				for _, n := range res.Counters.Names() {
					t.Logf("%s=%d", n, res.Counters.Get(n))
				}
				t.Fatalf("digest = %#x, want %#x (soft-error semantics changed)", got, tc.want)
			}
		})
	}
}

// TestGoldenBaselineDigest pins the MBIST baselines (SECDED, DECTED, FLAIR
// and MS-ECC) under a mixed fault-class spec and plain persistent faults,
// with the digest recipe of
// TestGoldenSoftErrorDigest. The digests were captured while each baseline
// kept a private copy of every line to re-encode from; reading the
// controller's payload from the data array instead must reproduce them bit
// for bit.
func TestGoldenBaselineDigest(t *testing.T) {
	conds := []struct {
		name     string
		workload string
		vdd      float64
		cfg      Config
	}{
		{"mixed", "xsbench", 0.6, Config{
			FaultClasses:  "mixed:i=0.2@0.5,a=0.1@0.5,t=1e-7",
			WarmupKernels: 2, ScrubKernels: 1}},
		{"plain", "fft", 0.575, Config{WarmupKernels: 1}},
	}
	want := map[string]uint64{
		"secded/mixed": 0x45830bb7a3fd5609, "secded/plain": 0x2baa750a43bb9e71,
		"dected/mixed": 0xfd6edd7e9e8bde92, "dected/plain": 0x61c3f0ada72fb090,
		"flair/mixed": 0x0fe9588945cdd9ce, "flair/plain": 0x2baa750a43bb9e71,
		"msecc/mixed": 0x490392c8f8043969, "msecc/plain": 0xbbf7b7a22d4e4b0d,
	}
	for _, scheme := range []string{"secded", "dected", "flair", "msecc"} {
		for _, c := range conds {
			name := scheme + "/" + c.name
			t.Run(name, func(t *testing.T) {
				cfg := c.cfg
				cfg.RequestsPerCU, cfg.Seed = 1500, 1
				newScheme, err := SchemeFactoryByName(scheme)
				if err != nil {
					t.Fatal(err)
				}
				res, err := RunOne(context.Background(), cfg, c.workload, newScheme, c.vdd)
				if err != nil {
					t.Fatal(err)
				}
				h := fnv.New64a()
				for _, n := range res.Counters.Names() {
					fmt.Fprintf(h, "%s=%d\n", n, res.Counters.Get(n))
				}
				fmt.Fprintf(h, "%+v\n", CacheableResult(res))
				if got := h.Sum64(); got != want[name] {
					for _, n := range res.Counters.Names() {
						t.Logf("%s=%d", n, res.Counters.Get(n))
					}
					t.Fatalf("digest = %#x, want %#x (a baseline's statistics changed)", got, want[name])
				}
			})
		}
	}
}

// coreLedgerRun runs the tracked simulation of the core work ledger —
// xsbench × killi-1:64 at 0.625×VDD, 2500 requests per CU, seed 1 — at
// the given shard count.
func coreLedgerRun(t *testing.T, shards int) gpu.Result {
	t.Helper()
	res, err := RunOne(context.Background(), Config{RequestsPerCU: 2500, Seed: 1, Shards: shards}, "xsbench",
		func() protection.Scheme { return killi.New(killi.Config{Ratio: 64}) }, 0.625)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// coreLedger is the simulator core's exact work ledger on the tracked run
// (see coreLedgerRun) at K=1 and K=4.
type coreLedger struct {
	cycles, events, serialTimestamps, roundsK4, crossShardK4 uint64
}

// trackedLedger is the committed ledger. Every counter is a pure function
// of the commit, the same on every host. A changed cycle, event, timestamp
// or cross-shard message count means the simulation's semantics moved:
// rebase it deliberately, with the goldens. K=4 barrier rounds may only
// fall.
var trackedLedger = coreLedger{
	cycles:           64471,
	events:           75073,
	serialTimestamps: 22777,
	roundsK4:         12065,
	crossShardK4:     39694,
}

// ledgerOf reads the ledger off a K=1/K=4 pair of runs.
func ledgerOf(k1, k4 gpu.Result) coreLedger {
	return coreLedger{k1.Cycles, k1.Sched.Events, k1.Sched.Timestamps, k4.Sched.Rounds, k4.Sched.CrossShardMessages}
}

// violations lists every gate a K=1/K=4 pair of tracked runs breaks
// against the ledger l: cycles, events, serial timestamps and K=4
// cross-shard messages exact, K=4 rounds at most l's and within cycles / 5,
// K=4 firing K=1's events, and K=1 on the serial path.
func (l coreLedger) violations(k1, k4 gpu.Result) []string {
	cur := ledgerOf(k1, k4)
	var bad []string
	for _, g := range []struct {
		name      string
		cur, want uint64
	}{
		{"K=1 cycles", cur.cycles, l.cycles},
		{"K=1 events", cur.events, l.events},
		{"K=1 serial timestamps", cur.serialTimestamps, l.serialTimestamps},
		{"K=4 cross-shard messages", cur.crossShardK4, l.crossShardK4},
	} {
		if g.cur != g.want {
			bad = append(bad, fmt.Sprintf("%s %d, want %d (simulation semantics moved)", g.name, g.cur, g.want))
		}
	}
	if cur.roundsK4 > l.roundsK4 {
		bad = append(bad, fmt.Sprintf("K=4 run: %d barrier rounds exceed %d (lookahead coalescing regressed)",
			cur.roundsK4, l.roundsK4))
	}
	// The coalescing win over the old two-barriers-per-cycle structure.
	if cur.roundsK4*5 > cur.cycles {
		bad = append(bad, fmt.Sprintf("K=4 rounds %d × 5 exceed %d cycles", cur.roundsK4, cur.cycles))
	}
	if k4.Sched.Events != k1.Sched.Events {
		bad = append(bad, fmt.Sprintf("K=4 run fired %d events, K=1 run %d (sharding changed the simulated work)",
			k4.Sched.Events, k1.Sched.Events))
	}
	// K=1 must take the serial fast path, so it pays nothing for sharding.
	if s := k1.Sched; s.Rounds != 0 || s.CrossShardMessages != 0 || s.IngestsSkipped != 0 {
		bad = append(bad, fmt.Sprintf("K=1 run reports %d rounds, %d cross-shard messages, %d skipped ingests; want all 0 (it left the serial fast path)",
			s.Rounds, s.CrossShardMessages, s.IngestsSkipped))
	}
	return bad
}

// TestCoreLedger runs the tracked simulation at K=1 and K=4 and requires
// it to pass every gate against trackedLedger.
func TestCoreLedger(t *testing.T) {
	k1, k4 := coreLedgerRun(t, 1), coreLedgerRun(t, 4)
	t.Logf("K=1: %d cycles, %d events, %d serial timestamps; K=4: %d rounds, %d cross-shard messages, %d ingests skipped",
		k1.Cycles, k1.Sched.Events, k1.Sched.Timestamps, k4.Sched.Rounds, k4.Sched.CrossShardMessages, k4.Sched.IngestsSkipped)
	for _, b := range trackedLedger.violations(k1, k4) {
		t.Error(b)
	}
}

// TestCoreLedgerGates perturbs a K=1/K=4 pair that matches trackedLedger
// and requires each gate to fire alone on its own counter.
func TestCoreLedgerGates(t *testing.T) {
	l := trackedLedger
	good := func() (k1, k4 gpu.Result) {
		k1 = gpu.Result{Cycles: l.cycles, Sched: engine.RunStats{Events: l.events, Timestamps: l.serialTimestamps}}
		k4 = gpu.Result{Cycles: l.cycles, Sched: engine.RunStats{
			Rounds: l.roundsK4, Events: l.events, Timestamps: 30000, CrossShardMessages: l.crossShardK4, IngestsSkipped: 100,
		}}
		return k1, k4
	}
	k1, k4 := good()
	if bad := l.violations(k1, k4); len(bad) != 0 {
		t.Fatalf("the ledger's own counters flagged: %v", bad)
	}
	for name, tc := range map[string]struct {
		perturb func(k1, k4 *gpu.Result)
		want    string
	}{
		"cycles":             {func(k1, _ *gpu.Result) { k1.Cycles++ }, "K=1 cycles"},
		"serial timestamps":  {func(k1, _ *gpu.Result) { k1.Sched.Timestamps-- }, "K=1 serial timestamps"},
		"events":             {func(k1, k4 *gpu.Result) { k1.Sched.Events++; k4.Sched.Events++ }, "K=1 events"},
		"cross-shard msgs":   {func(_, k4 *gpu.Result) { k4.Sched.CrossShardMessages-- }, "K=4 cross-shard messages"},
		"rounds":             {func(_, k4 *gpu.Result) { k4.Sched.Rounds++ }, "coalescing regressed"},
		"K=4 events":         {func(_, k4 *gpu.Result) { k4.Sched.Events-- }, "sharding changed"},
		"K=1 rounds":         {func(k1, _ *gpu.Result) { k1.Sched.Rounds = 1 }, "serial fast path"},
		"K=1 cross-shard":    {func(k1, _ *gpu.Result) { k1.Sched.CrossShardMessages = 1 }, "serial fast path"},
		"K=1 skipped ingest": {func(k1, _ *gpu.Result) { k1.Sched.IngestsSkipped = 1 }, "serial fast path"},
	} {
		k1, k4 := good()
		tc.perturb(&k1, &k4)
		bad := l.violations(k1, k4)
		if len(bad) != 1 || !strings.Contains(bad[0], tc.want) {
			t.Errorf("%s: want exactly 1 violation mentioning %q, got %v", name, tc.want, bad)
		}
	}

	// Fewer rounds than committed is an improvement, not a violation.
	k1, k4 = good()
	k4.Sched.Rounds /= 2
	if bad := l.violations(k1, k4); len(bad) != 0 {
		t.Errorf("round-count improvement flagged: %v", bad)
	}

	// The 5x coalescing floor is absolute, even when the ledger agrees.
	k1, k4 = good()
	k1.Cycles = k4.Sched.Rounds * 4
	if bad := ledgerOf(k1, k4).violations(k1, k4); len(bad) != 1 || !strings.Contains(bad[0], "× 5 exceed") {
		t.Errorf("rounds × 5 > cycles: want exactly 1 violation, got %v", bad)
	}
}

// TestShardSpeedup gates the sharded engine's parallel win: on a host with
// at least four CPUs the tracked run must be at least 2× faster at K=4 than
// at K=1. Each side is the best of three runs timed in this process, so no
// stored baseline can drift. A narrower host cannot show the win; there the
// test only logs the timings.
func TestShardSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("times six simulations")
	}
	best := func(shards int) time.Duration {
		var b time.Duration
		for i := 0; i < 3; i++ {
			start := time.Now()
			coreLedgerRun(t, shards)
			if d := time.Since(start); i == 0 || d < b {
				b = d
			}
		}
		return b
	}
	k1, k4 := best(1), best(4)
	ncpu := runtime.NumCPU()
	t.Logf("tracked run, best of 3: K=1 %v, K=4 %v (%d CPUs)", k1, k4, ncpu)
	if ncpu >= 4 && k4 > k1/2 {
		t.Errorf("K=4 run %v is not >= 2x faster than K=1 %v on a %d-CPU host", k4, k1, ncpu)
	}
}
