package engine

import (
	"testing"
)

// testNode is a synthetic domain: every event mixes its payload and the
// firing cycle into a running digest, then derives follow-on events from a
// domain-private xorshift stream. Because the stream is consumed in the
// domain's canonical event order, the digest is sensitive to any ordering
// or timing difference between shard counts.
type testNode struct {
	d      *Domain
	peers  []*testNode
	rng    uint64
	digest uint64
	fired  uint64
}

func (n *testNode) next() uint64 {
	n.rng ^= n.rng << 13
	n.rng ^= n.rng >> 7
	n.rng ^= n.rng << 17
	return n.rng
}

func mix(h, v uint64) uint64 {
	h ^= v
	h *= 0x100000001b3
	return h
}

// OnEvent interprets a as the remaining fan-out budget.
func (n *testNode) OnEvent(kind uint8, a, b uint64) {
	n.fired++
	n.digest = mix(n.digest, n.d.Now())
	n.digest = mix(n.digest, uint64(kind))
	n.digest = mix(n.digest, a)
	n.digest = mix(n.digest, b)
	if a == 0 {
		return
	}
	r := n.next()
	// Always one local successor (possibly same-cycle), sometimes a
	// message to a pseudo-random other peer with delay >= 1.
	n.d.After(r%4, uint8(r%7), a-1, r)
	if r%3 != 0 {
		if peer := n.peers[(r>>8)%uint64(len(n.peers))]; peer != n {
			n.d.Send(peer.d, 1+(r>>16)%5, uint8(r%5), a-1, r>>24)
		}
	}
}

// declareAll declares every ordered pair of distinct domains at floor 1,
// the tightest topology the engine accepts.
func declareAll(s *Sharded, domains int) {
	for src := 0; src < domains; src++ {
		for dst := 0; dst < domains; dst++ {
			if src != dst {
				s.DeclareEdge(src, dst, 1)
			}
		}
	}
}

type shardedRun struct {
	digest uint64
	fired  uint64
	now    uint64
}

func runSynthetic(t *testing.T, domains, shards int, seed uint64) shardedRun {
	t.Helper()
	s := NewSharded(domains)
	declareAll(s, domains)
	s.SetShards(shards)
	nodes := make([]*testNode, domains)
	for i := range nodes {
		nodes[i] = &testNode{d: s.Domain(i), rng: seed + uint64(i)*0x9e3779b97f4a7c15 + 1}
	}
	for i, n := range nodes {
		n.peers = nodes
		n.d.Bind(n)
		// Seed a few initial events per domain with varied budgets.
		n.d.After(uint64(i%5), 0, 6+uint64(i%3), uint64(i))
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
	return out
}

// TestShardInvariance is the core determinism property: the same synthetic
// workload produces bit-identical per-domain digests, event counts, and
// final clock at every shard count, including shard counts above the
// domain count (clamped) and above GOMAXPROCS.
func TestShardInvariance(t *testing.T) {
	for _, domains := range []int{1, 3, 24} {
		want := runSynthetic(t, domains, 1, 42)
		if want.fired == 0 {
			t.Fatalf("domains=%d: synthetic workload fired no events", domains)
		}
		for _, k := range []int{2, 3, 4, 7, 16, 64} {
			got := runSynthetic(t, domains, k, 42)
			if got != want {
				t.Errorf("domains=%d K=%d: got %+v, want %+v (serial)", domains, k, got, want)
			}
		}
	}
}

// TestShardInvarianceAcrossSeeds varies the workload shape too.
func TestShardInvarianceAcrossSeeds(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		want := runSynthetic(t, 24, 1, seed)
		for _, k := range []int{4, 16} {
			if got := runSynthetic(t, 24, k, seed); got != want {
				t.Errorf("seed=%d K=%d: got %+v, want %+v", seed, k, got, want)
			}
		}
	}
}

func TestSendZeroDelayPanics(t *testing.T) {
	s := NewSharded(2)
	declareAll(s, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Send with delay 0 should panic: it would break the lookahead invariant")
		}
	}()
	s.Domain(0).Send(s.Domain(1), 0, 0, 0, 0)
}

func TestSetShardsWithPendingPanics(t *testing.T) {
	s := NewSharded(2)
	s.Domain(0).Bind(sinkFunc(func(uint8, uint64, uint64) {}))
	s.Domain(0).After(5, 0, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("SetShards with queued events should panic")
		}
	}()
	s.SetShards(2)
}

type sinkFunc func(kind uint8, a, b uint64)

func (f sinkFunc) OnEvent(kind uint8, a, b uint64) { f(kind, a, b) }

// TestPacerBoundaries pins the pacer contract at K=1 and K>1: the hook
// fires once per boundary, in order, exactly for the boundaries up to the
// last event's cycle, and never while any domain event at or after the
// boundary has fired.
func TestPacerBoundaries(t *testing.T) {
	for _, k := range []int{1, 3} {
		s := NewSharded(3)
		s.SetShards(k)
		var lastEvent uint64
		for i := 0; i < 3; i++ {
			d := s.Domain(i)
			d.Bind(sinkFunc(func(kind uint8, a, b uint64) {
				if d.Now() > lastEvent {
					lastEvent = d.Now()
				}
				if a > 0 {
					d.After(900, kind, a-1, b)
				}
			}))
		}
		// lastEvent is written from several workers at K>1; that is safe
		// here only because each domain's events are far apart in time so
		// writes land in distinct rounds. Keep it that way.
		var fired []uint64
		s.SetTicker(0, 1000, func(b uint64) { fired = append(fired, b) })
		s.Domain(0).After(10, 1, 4, 0) // events at 10, 910, 1810, 2710, 3610
		end := s.Run()
		if end != 3610 {
			t.Fatalf("K=%d: final cycle %d, want 3610", k, end)
		}
		want := []uint64{1000, 2000, 3000}
		if len(fired) != len(want) {
			t.Fatalf("K=%d: pacer fired at %v, want %v", k, fired, want)
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("K=%d: pacer fired at %v, want %v", k, fired, want)
			}
		}
		// A second run continues the boundary sequence from the armed
		// position rather than re-firing old boundaries.
		fired = fired[:0]
		s.Domain(1).After(600, 1, 0, 0) // event at 4210; boundary 4000 fires
		s.Run()
		if len(fired) != 1 || fired[0] != 4000 {
			t.Fatalf("K=%d: second run pacer fired at %v, want [4000]", k, fired)
		}
	}
}

// TestTickerSlots pins the multi-ticker contract at K=1 and K>1: slots
// tick independently at their own periods, a boundary due in several slots
// fires them in ascending slot order, removing one slot leaves the others
// armed, and the firing sequence is identical at every shard count.
func TestTickerSlots(t *testing.T) {
	type firing struct {
		slot     int
		boundary uint64
	}
	runOnce := func(k int, dropSlot0 bool) []firing {
		s := NewSharded(3)
		s.SetShards(k)
		for i := 0; i < 3; i++ {
			d := s.Domain(i)
			d.Bind(sinkFunc(func(kind uint8, a, b uint64) {
				if a > 0 {
					d.After(700, kind, a-1, b)
				}
			}))
		}
		var fired []firing
		s.SetTicker(0, 1000, func(b uint64) { fired = append(fired, firing{0, b}) })
		s.SetTicker(1, 1500, func(b uint64) { fired = append(fired, firing{1, b}) })
		s.SetTicker(2, 3000, func(b uint64) { fired = append(fired, firing{2, b}) })
		if dropSlot0 {
			s.SetTicker(0, 0, nil)
		}
		s.Domain(0).After(10, 1, 5, 0) // events at 10, 710, ..., 3510
		s.Run()
		return fired
	}
	want := []firing{
		{0, 1000}, {1, 1500}, {0, 2000}, {0, 3000}, {1, 3000}, {2, 3000},
	}
	wantDropped := []firing{{1, 1500}, {1, 3000}, {2, 3000}}
	for _, k := range []int{1, 3} {
		got := runOnce(k, false)
		if len(got) != len(want) {
			t.Fatalf("K=%d: tickers fired %v, want %v", k, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("K=%d: tickers fired %v, want %v", k, got, want)
			}
		}
		// Removing slot 0 (the obs pacer pattern) must not disturb the
		// other slots — the regression the slot API exists to prevent.
		got = runOnce(k, true)
		if len(got) != len(wantDropped) {
			t.Fatalf("K=%d dropped slot 0: tickers fired %v, want %v", k, got, wantDropped)
		}
		for i := range wantDropped {
			if got[i] != wantDropped[i] {
				t.Fatalf("K=%d dropped slot 0: tickers fired %v, want %v", k, got, wantDropped)
			}
		}
	}
}

// The Daemon tests below pin the ticker as the engine's daemon: a hook
// that fires at its boundaries while live events remain, but never keeps
// Run alive by itself. Each runs at K=1 and K=2.

func TestDaemonDoesNotKeepRunAlive(t *testing.T) {
	for _, k := range []int{1, 2} {
		s := NewSharded(2)
		s.SetShards(k)
		fired := 0
		s.SetTicker(1, 5, func(uint64) { fired++ })
		if got := s.Run(); got != 0 {
			t.Fatalf("K=%d: Run with only a ticker armed advanced to cycle %d, want 0", k, got)
		}
		if fired != 0 || s.Pending() != 0 {
			t.Fatalf("K=%d: ticker fired %d times, Pending=%d, want 0/0", k, fired, s.Pending())
		}
	}
}

func TestDaemonInterleavesWithLiveEvents(t *testing.T) {
	for _, k := range []int{1, 2} {
		s := NewSharded(2)
		s.SetShards(k)
		s.Domain(1).Bind(sinkFunc(func(uint8, uint64, uint64) {}))
		var fired []uint64
		s.SetTicker(1, 10, func(b uint64) { fired = append(fired, b) })
		s.Domain(1).After(35, 0, 0, 0)
		if got := s.Run(); got != 35 {
			t.Fatalf("K=%d: final cycle %d, want 35", k, got)
		}
		// Boundaries 10, 20, 30 precede the live event at 35; 40 does not
		// fire.
		if len(fired) != 3 || fired[0] != 10 || fired[1] != 20 || fired[2] != 30 {
			t.Fatalf("K=%d: ticker fired at %v, want [10 20 30]", k, fired)
		}
	}
}

func TestDaemonPersistsAcrossRuns(t *testing.T) {
	for _, k := range []int{1, 2} {
		s := NewSharded(2)
		s.SetShards(k)
		s.Domain(0).Bind(sinkFunc(func(uint8, uint64, uint64) {}))
		var fired []uint64
		s.SetTicker(1, 10, func(b uint64) { fired = append(fired, b) })
		s.Domain(0).After(15, 0, 0, 0)
		s.Run()
		if len(fired) != 1 || fired[0] != 10 {
			t.Fatalf("K=%d: first run: ticker fired at %v, want [10]", k, fired)
		}
		// A second Run resumes from the armed boundary (20) without
		// rearming.
		s.Domain(0).After(30, 0, 0, 0) // now=15, so fires at 45
		s.Run()
		if len(fired) != 4 || fired[1] != 20 || fired[2] != 30 || fired[3] != 40 {
			t.Fatalf("K=%d: second run: ticker fired at %v, want [10 20 30 40]", k, fired)
		}
	}
}

// TestTickerFiresBeforeSameCycleEvents pins that a boundary equal to an
// event cycle fires before every event of that cycle, whatever the order
// the events and the ticker were set up in.
func TestTickerFiresBeforeSameCycleEvents(t *testing.T) {
	for _, k := range []int{1, 2} {
		s := NewSharded(2)
		s.SetShards(k)
		var order []string
		s.Domain(0).Bind(sinkFunc(func(_ uint8, a, _ uint64) {
			order = append(order, []string{"live1", "live2"}[a])
		}))
		s.Domain(0).After(5, 0, 0, 0)
		s.SetTicker(1, 5, func(uint64) { order = append(order, "tick") })
		s.Domain(0).After(5, 0, 1, 0)
		s.Run()
		if len(order) != 3 || order[0] != "tick" || order[1] != "live1" || order[2] != "live2" {
			t.Fatalf("K=%d: same-cycle order %v, want [tick live1 live2]", k, order)
		}
	}
}

// TestShardedRunReuse runs the same engine twice and checks the clock is
// monotone and domain Now() agrees with the engine between runs.
func TestShardedRunReuse(t *testing.T) {
	s := NewSharded(4)
	declareAll(s, 4)
	s.SetShards(2)
	for i := 0; i < 4; i++ {
		d := s.Domain(i)
		d.Bind(sinkFunc(func(kind uint8, a, b uint64) {
			if a > 0 {
				d.Send(s.Domain((int(d.id)+1)%4), 3, kind, a-1, b)
			}
		}))
	}
	s.Domain(0).After(1, 0, 10, 0)
	first := s.Run()
	if first == 0 {
		t.Fatal("first run did not advance the clock")
	}
	for i := 0; i < 4; i++ {
		if got := s.Domain(i).Now(); got != first {
			t.Fatalf("domain %d Now() = %d after run, want %d", i, got, first)
		}
	}
	s.Domain(2).After(5, 0, 4, 0)
	second := s.Run()
	if second <= first {
		t.Fatalf("second run clock %d did not advance past %d", second, first)
	}
}

// TestShardedHeapOrdering drives one domain through interleaved pushes and
// pops via the public API and checks canonical order: cycle first, then
// local events before messages, then scheduling sequence.
func TestShardedHeapOrdering(t *testing.T) {
	s := NewSharded(2)
	s.DeclareEdge(1, 0, 1)
	var order []uint64
	s.Domain(0).Bind(sinkFunc(func(kind uint8, a, b uint64) { order = append(order, a) }))
	s.Domain(1).Bind(sinkFunc(func(kind uint8, a, b uint64) {}))
	// Same-cycle: a message scheduled *before* the locals must still fire
	// after them.
	s.Domain(1).Send(s.Domain(0), 7, 0, 100, 0)
	s.Domain(0).After(7, 0, 1, 0)
	s.Domain(0).After(7, 0, 2, 0)
	s.Domain(0).After(3, 0, 0, 0)
	s.Run()
	want := []uint64{0, 1, 2, 100}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

func BenchmarkShardedSerial(b *testing.B) {
	s := NewSharded(1)
	d := s.Domain(0)
	d.Bind(sinkFunc(func(kind uint8, a, b uint64) {
		if a%2 == 0 {
			d.After(d.Now()%13, kind, a+1, b)
		}
	}))
	for i := 0; i < 128; i++ {
		d.After(uint64(i%13), 0, uint64(i), 0)
	}
	s.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 100; j++ {
			d.After(uint64(j%13), 0, uint64(j), 0)
		}
		s.Run()
	}
}
