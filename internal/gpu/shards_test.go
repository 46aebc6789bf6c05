package gpu

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"killi/internal/killi"
	"killi/internal/obs"
	"killi/internal/protection"
)

// shardMatrix is the scheme × workload grid the shard-invariance tests
// sweep: one state-heavy scheme (Killi: ECC cache, DFH training, contention
// evictions) and one stateless-per-line baseline, on one memory-bound and
// one compute-bound workload.
var shardMatrix = []struct {
	scheme    string
	newScheme protection.Factory
	workload  string
}{
	{"killi-1:64", killiFac(killi.Config{Ratio: 64}), "xsbench"},
	{"killi-1:64", killiFac(killi.Config{Ratio: 64}), "nekbone"},
	{"secded", fac(protection.NewSECDEDPerLine), "xsbench"},
	{"secded", fac(protection.NewSECDEDPerLine), "nekbone"},
}

var shardCounts = []int{1, 2, 4, 16}

// resultDigest hashes a Result's fields and full counter set.
func resultDigest(res Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "cycles=%d instrs=%d acc=%d miss=%d mem=%d disabled=%d\n",
		res.Cycles, res.Instructions, res.L2Accesses, res.L2Misses,
		res.MemAccesses, res.DisabledLines)
	for _, n := range res.Counters.Names() {
		fmt.Fprintf(h, "%s=%d\n", n, res.Counters.Get(n))
	}
	return h.Sum64()
}

// TestShardCountInvariant is the tentpole determinism gate: for every
// scheme × workload cell, running the identical simulation at K = 1, 2, 4,
// 16 shards must produce bit-identical results — same cycles, same counter
// set, same disabled lines — because the engine delivers every domain the
// same events in the same order regardless of how domains are placed on
// shards.
func TestShardCountInvariant(t *testing.T) {
	for _, tc := range shardMatrix {
		t.Run(tc.scheme+"/"+tc.workload, func(t *testing.T) {
			traces := shortTraces(tc.workload, 1200)
			var want uint64
			for i, k := range shardCounts {
				sys := New(smallConfig(0.625), tc.newScheme)
				sys.SetShards(k)
				if got := sys.Shards(); k > 1 && got < 2 {
					t.Fatalf("SetShards(%d) clamped to %d", k, got)
				}
				res := sys.Run(traces)
				d := resultDigest(res)
				if i == 0 {
					want = d
					continue
				}
				if d != want {
					t.Fatalf("K=%d digest %#x differs from K=1 digest %#x", k, d, want)
				}
			}
		})
	}
}

// TestShardCountInvariantObserved extends the gate to the observability
// export: the JSONL byte stream a Collector records (resets, transitions
// with global line IDs, epoch samples) must be identical at every shard
// count — per-bank buffering plus the deterministic cross-bank flush order
// make emission independent of worker interleaving.
func TestShardCountInvariantObserved(t *testing.T) {
	for _, tc := range shardMatrix {
		t.Run(tc.scheme+"/"+tc.workload, func(t *testing.T) {
			traces := shortTraces(tc.workload, 1200)
			var want []byte
			var wantDigest uint64
			for i, k := range shardCounts {
				sys := New(smallConfig(0.625), tc.newScheme)
				sys.SetShards(k)
				col := obs.NewCollector()
				sys.SetObserver(col, 2048)
				res := sys.Run(traces)
				var buf bytes.Buffer
				if err := col.WriteJSONL(&buf); err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					want = buf.Bytes()
					wantDigest = resultDigest(res)
					continue
				}
				if d := resultDigest(res); d != wantDigest {
					t.Fatalf("K=%d observed-run digest %#x differs from K=1 %#x", k, d, wantDigest)
				}
				if !bytes.Equal(buf.Bytes(), want) {
					a, b := want, buf.Bytes()
					n := min(len(a), len(b))
					at := n
					for j := 0; j < n; j++ {
						if a[j] != b[j] {
							at = j
							break
						}
					}
					lo := max(0, at-120)
					t.Fatalf("K=%d obs JSONL diverges from K=1 at byte %d (lens %d vs %d):\nK=1: …%s\nK=%d: …%s",
						k, at, len(a), len(b), a[lo:min(len(a), at+120)], k, b[lo:min(len(b), at+120)])
				}
			}
		})
	}
}

// TestShardCountInvariantAcrossRuns checks invariance holds for state that
// persists between kernels: warm-up + measured kernel with a voltage
// transition in between, the dvfs pattern.
func TestShardCountInvariantAcrossRuns(t *testing.T) {
	traces := shortTraces("xsbench", 1000)
	run := func(k int) (uint64, uint64) {
		sys := New(smallConfig(0.625), killiFac(killi.Config{Ratio: 64}))
		sys.SetShards(k)
		warm := sys.Run(traces)
		sys.SetVoltage(1.0, 0)
		sys.SetVoltage(0.625, 0)
		meas := sys.Run(traces)
		return resultDigest(warm), resultDigest(meas)
	}
	w1, m1 := run(1)
	for _, k := range []int{2, 4, 16} {
		wk, mk := run(k)
		if wk != w1 || mk != m1 {
			t.Fatalf("K=%d diverges across runs: warm %#x/%#x measured %#x/%#x",
				k, wk, w1, mk, m1)
		}
	}
}

// TestSetShardsMidLifeRejected pins the contract: the shard layout may only
// change between runs (the engine refuses while events are pending), and
// out-of-range values clamp.
func TestSetShardsMidLifeRejected(t *testing.T) {
	sys := New(smallConfig(1.0), fac(protection.NewNone))
	sys.SetShards(1 << 20)
	if sys.Shards() > sys.cfg.CUs+sys.effBanks {
		t.Fatalf("Shards() = %d exceeds domain count", sys.Shards())
	}
	sys.SetShards(0)
	if sys.Shards() != 1 {
		t.Fatalf("Shards() = %d after SetShards(0), want 1", sys.Shards())
	}
}

// Shards returns the effective shard count (after clamping to the domain
// count).
func (s *System) Shards() int { return s.eng.Shards() }
