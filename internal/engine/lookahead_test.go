package engine

import (
	"runtime"
	"sync"
	"testing"
)

// This file pins the lookahead-coalesced round scheduler: bit-identity
// against the serial engine under randomized declared topologies, the
// oversubscribed barrier path, deterministic round accounting, and the
// declared-edge enforcement contract.

// edgeSpec is one declared edge of a random topology.
type edgeSpec struct {
	dst   int
	floor uint64
}

// topoNode fires like testNode but routes messages along declared edges
// only, with delays at or above each edge's floor.
type topoNode struct {
	d      *Domain
	nodes  []*topoNode
	edges  []edgeSpec
	rng    uint64
	digest uint64
	fired  uint64
}

func (n *topoNode) next() uint64 {
	n.rng ^= n.rng << 13
	n.rng ^= n.rng >> 7
	n.rng ^= n.rng << 17
	return n.rng
}

func (n *topoNode) OnEvent(kind uint8, a, b uint64) {
	n.fired++
	n.digest = mix(n.digest, n.d.Now())
	n.digest = mix(n.digest, uint64(kind))
	n.digest = mix(n.digest, a)
	n.digest = mix(n.digest, b)
	if a == 0 {
		return
	}
	r := n.next()
	n.d.After(r%4, uint8(r%7), a-1, r)
	if len(n.edges) > 0 && r%3 != 0 {
		e := n.edges[(r>>8)%uint64(len(n.edges))]
		n.d.Send(n.nodes[e.dst].d, e.floor+(r>>16)%4, uint8(r%5), a-1, r>>24)
	}
}

// buildTopology derives a random directed edge set over `domains` domains
// from the seed. Dense mode declares each ordered pair with probability
// ~1/3 and a floor in [1, 12] — an adversarial graph whose shard-pair
// lookahead usually bottoms out at 1. Bipartite mode mirrors the GPU's
// requester/bank shape: edges only cross the halves, probability 1/2,
// floors in [4, 11], so every shard pair's lookahead is >= 4 and rounds
// must coalesce. The same seed always yields the same topology.
func buildTopology(domains int, seed uint64, bipartite bool) [][]edgeSpec {
	rng := seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	half := domains / 2
	edges := make([][]edgeSpec, domains)
	for src := 0; src < domains; src++ {
		for dst := 0; dst < domains; dst++ {
			if src == dst {
				continue
			}
			r := next()
			if bipartite {
				if (src < half) == (dst < half) || r%2 == 0 {
					continue
				}
				edges[src] = append(edges[src], edgeSpec{dst: dst, floor: 4 + (r>>32)%8})
				continue
			}
			if r%3 == 0 {
				edges[src] = append(edges[src], edgeSpec{dst: dst, floor: 1 + (r>>32)%12})
			}
		}
	}
	return edges
}

func runTopo(t testing.TB, domains, shards int, seed uint64, edges [][]edgeSpec) (shardedRun, RunStats) {
	t.Helper()
	s := NewSharded(domains)
	for src, row := range edges {
		for _, e := range row {
			s.DeclareEdge(src, e.dst, e.floor)
		}
	}
	s.SetShards(shards)
	nodes := make([]*topoNode, domains)
	for i := range nodes {
		nodes[i] = &topoNode{d: s.Domain(i), edges: edges[i], rng: seed + uint64(i)*0x9e3779b97f4a7c15 + 1}
	}
	for i, n := range nodes {
		n.nodes = nodes
		n.d.Bind(n)
		n.d.After(uint64(i%5), 0, 7+uint64(i%3), uint64(i))
	}
	now := s.Run()
	if s.Pending() != 0 {
		t.Fatalf("K=%d: %d events still pending after Run", shards, s.Pending())
	}
	out := shardedRun{now: now}
	for _, n := range nodes {
		out.digest = mix(out.digest, n.digest)
		out.fired += n.fired
	}
	return out, s.Stats()
}

// TestLookaheadCoalescingInvariance is the property test for the coalesced
// scheduler: under randomized declared per-edge delays, every shard count
// fires the exact same events at the same cycles in the same per-domain
// order as the serial engine. On the bipartite topology (all lookaheads
// >= 4) coalescing must genuinely happen: rounds per run strictly below the
// serial engine's distinct-timestamp count, which is the round count the
// pre-lookahead scheduler needed.
func TestLookaheadCoalescingInvariance(t *testing.T) {
	const domains = 24
	for seed := uint64(1); seed <= 6; seed++ {
		for _, bipartite := range []bool{false, true} {
			edges := buildTopology(domains, seed, bipartite)
			want, serialStats := runTopo(t, domains, 1, seed, edges)
			if want.fired == 0 {
				t.Fatalf("seed=%d: workload fired no events", seed)
			}
			if serialStats.Rounds != 0 {
				t.Fatalf("seed=%d: serial run reported %d barrier rounds, want 0", seed, serialStats.Rounds)
			}
			for _, k := range []int{2, 4, 16} {
				got, stats := runTopo(t, domains, k, seed, edges)
				if got != want {
					t.Errorf("seed=%d bipartite=%v K=%d: got %+v, want %+v (serial)", seed, bipartite, k, got, want)
				}
				if stats.Events != serialStats.Events {
					t.Errorf("seed=%d bipartite=%v K=%d: fired %d events, serial fired %d",
						seed, bipartite, k, stats.Events, serialStats.Events)
				}
				if stats.Rounds == 0 || stats.Rounds > serialStats.Timestamps {
					t.Errorf("seed=%d bipartite=%v K=%d: %d rounds vs %d serial timestamps — more rounds than per-timestamp scheduling",
						seed, bipartite, k, stats.Rounds, serialStats.Timestamps)
				}
				if bipartite && stats.Rounds*2 > serialStats.Timestamps {
					t.Errorf("seed=%d K=%d: %d rounds vs %d serial timestamps — lookahead >= 4 did not coalesce",
						seed, k, stats.Rounds, serialStats.Timestamps)
				}
			}
		}
	}
}

// TestRunStatsDeterministic pins that the scheduling ledger is a pure
// function of the simulation and shard count: two identical runs agree
// exactly, on every field.
func TestRunStatsDeterministic(t *testing.T) {
	edges := buildTopology(24, 3, true)
	for _, k := range []int{2, 4} {
		res1, stats1 := runTopo(t, 24, k, 3, edges)
		res2, stats2 := runTopo(t, 24, k, 3, edges)
		if res1 != res2 {
			t.Fatalf("K=%d: results differ across identical runs", k)
		}
		if stats1 != stats2 {
			t.Errorf("K=%d: RunStats differ across identical runs: %+v vs %+v", k, stats1, stats2)
		}
		if stats1.CrossShardMessages == 0 {
			t.Errorf("K=%d: no cross-shard messages counted in a multi-shard run", k)
		}
	}
}

// TestOversubscribedShards runs far more shards than GOMAXPROCS (the
// barrier's backoff/park path) and checks bit-identity; CI runs this
// package under -race, which also validates the barrier's synchronization.
func TestOversubscribedShards(t *testing.T) {
	const domains = 64
	k := 4 * runtime.GOMAXPROCS(0)
	if k > domains {
		k = domains
	}
	want := runSynthetic(t, domains, 1, 7)
	got := runSynthetic(t, domains, k, 7)
	if got != want {
		t.Fatalf("K=%d (GOMAXPROCS=%d): got %+v, want %+v", k, runtime.GOMAXPROCS(0), got, want)
	}
	edges := buildTopology(domains, 7, true)
	wantT, _ := runTopo(t, domains, 1, 7, edges)
	gotT, _ := runTopo(t, domains, k, 7, edges)
	if gotT != wantT {
		t.Fatalf("declared topology K=%d: got %+v, want %+v", k, gotT, wantT)
	}
}

// TestDeclaredEdgeEnforcement pins the declared-topology contract: Sends on
// undeclared edges or below the declared floor panic instead of silently
// breaking the lookahead bound.
func TestDeclaredEdgeEnforcement(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	s := NewSharded(3)
	s.DeclareEdge(0, 1, 5)
	sink := sinkFunc(func(uint8, uint64, uint64) {})
	for i := 0; i < 3; i++ {
		s.Domain(i).Bind(sink)
	}
	s.Domain(0).Send(s.Domain(1), 5, 0, 0, 0) // at the floor: fine
	s.Run()
	mustPanic("below floor", func() { s.Domain(0).Send(s.Domain(1), 4, 0, 0, 0) })
	mustPanic("undeclared edge", func() { s.Domain(0).Send(s.Domain(2), 9, 0, 0, 0) })
	mustPanic("zero floor", func() { s.DeclareEdge(1, 2, 0) })
	mustPanic("self edge", func() { s.DeclareEdge(1, 1, 3) })
	mustPanic("bad placement", func() {
		s2 := NewSharded(4)
		s2.AssignShards(2, func(d int) int { return 2 })
	})
}

// BenchmarkBarrier measures one barrier round trip per worker at several
// sizes (sizes above GOMAXPROCS exercise the backoff path).
func BenchmarkBarrier(b *testing.B) {
	for _, size := range []int{1, 2, 4} {
		b.Run("size"+itoa(size), func(b *testing.B) {
			bar := newBarrier(uint64(size))
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < size; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < b.N; i++ {
						bar.wait(nil)
					}
				}()
			}
			wg.Wait()
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
