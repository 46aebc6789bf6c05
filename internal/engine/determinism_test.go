package engine

import (
	"container/heap"
	"testing"

	"killi/internal/xrand"
)

// refEvent and refHeap are a straight container/heap priority queue over
// the engine's canonical (cycle, key) order, kept as the ordering oracle
// for the property test below.
type refEvent struct {
	when, key  uint64
	dom        int
	id, budget uint64
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].key < h[j].key
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// scheduler abstracts Sharded and the reference queue for the shared
// workload generator: local events via after, cross-domain messages via
// send, both relative to the firing domain's current cycle.
type scheduler interface {
	now(dom int) uint64
	after(dom int, delay, id, budget uint64)
	send(src, dst int, delay, id, budget uint64)
}

// refEngine is a single global container/heap queue that derives each
// event's key exactly as Domain.After and Domain.Send specify.
type refEngine struct {
	clock  uint64
	seq    []uint64
	events refHeap
}

func (e *refEngine) now(int) uint64 { return e.clock }
func (e *refEngine) after(dom int, delay, id, budget uint64) {
	e.seq[dom]++
	heap.Push(&e.events, refEvent{when: e.clock + delay, key: uint64(dom)<<seqBits | e.seq[dom], dom: dom, id: id, budget: budget})
}
func (e *refEngine) send(src, dst int, delay, id, budget uint64) {
	e.seq[src]++
	heap.Push(&e.events, refEvent{when: e.clock + delay, key: msgClass | uint64(src)<<seqBits | e.seq[src], dom: dst, id: id, budget: budget})
}

type shardedSched struct{ s *Sharded }

func (x shardedSched) now(dom int) uint64 { return x.s.Domain(dom).Now() }
func (x shardedSched) after(dom int, delay, id, budget uint64) {
	x.s.Domain(dom).After(delay, 0, id, budget)
}
func (x shardedSched) send(src, dst int, delay, id, budget uint64) {
	x.s.Domain(src).Send(x.s.Domain(dst), delay, 0, id, budget)
}

// firing is one fired event: its id and cycle.
type firing struct{ id, cycle uint64 }

// schedTrace records each domain's firing sequence and, when global is
// set (serial runs only), the global one.
type schedTrace struct {
	global bool
	all    []firing
	byDom  [][]firing
}

const oracleDomains = 4

// randomDelay draws a delay from a mix that exercises every queue path:
// zero (same-cycle), short, straddling the calendar horizon, and far
// beyond it (spill).
func randomDelay(r uint64) uint64 {
	switch r % 8 {
	case 0:
		return 0
	case 1, 2, 3:
		return (r >> 8) % 40
	case 4:
		return horizon - 8 + (r>>8)%16
	case 5:
		return horizon + (r>>8)%5000
	default:
		return (r >> 8) % 600
	}
}

// fire is the shared event behavior: record the firing, then derive the
// event's children purely from (seed, id), so both engines make identical
// scheduling decisions. Some children target an absolute grid cycle, so
// events pushed from far away (spilled) and from near (bucketed) collide
// on the same cycle and must be ordered by key alone.
func fire(e scheduler, tr *schedTrace, seed uint64, dom int, id, budget uint64) {
	now := e.now(dom)
	if tr.global {
		tr.all = append(tr.all, firing{id, now})
	}
	tr.byDom[dom] = append(tr.byDom[dom], firing{id, now})
	if budget == 0 {
		return
	}
	r := xrand.New(seed ^ id*0x9e3779b97f4a7c15)
	children := 1 + r.Uint64()%2
	for j := uint64(0); j < children; j++ {
		child := id*3 + j + 1
		x := r.Uint64()
		var delay uint64
		if x%5 == 0 {
			// Aim at the next-but-k multiple of 1024: a grid shared by
			// events scheduled from anywhere, some of them beyond the
			// horizon.
			target := (now/1024 + 1 + (x>>8)%6) * 1024
			delay = target - now
		} else {
			delay = randomDelay(x >> 3)
		}
		if x%3 == 0 {
			dst := int((x >> 40) % oracleDomains)
			if dst != dom {
				if delay == 0 {
					delay = 1
				}
				e.send(dom, dst, delay, child, budget-1)
				continue
			}
		}
		e.after(dom, delay, child, budget-1)
	}
}

// seedRoots schedules the initial events of a random schedule.
func seedRoots(e scheduler, seed uint64) {
	r := xrand.New(seed)
	for i := uint64(0); i < 48; i++ {
		e.after(int(i%oracleDomains), randomDelay(r.Uint64()), 1_000_000+i, 1+r.Uint64()%6)
	}
}

func runReference(seed uint64) *schedTrace {
	e := &refEngine{seq: make([]uint64, oracleDomains)}
	tr := &schedTrace{global: true, byDom: make([][]firing, oracleDomains)}
	seedRoots(e, seed)
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(refEvent)
		e.clock = ev.when
		fire(e, tr, seed, ev.dom, ev.id, ev.budget)
	}
	return tr
}

func runShardedSchedule(seed uint64, k int) *schedTrace {
	return runScheduleOn(NewSharded(oracleDomains), seed, k)
}

// runScheduleOn fires seed's schedule on s at k shards.
func runScheduleOn(s *Sharded, seed uint64, k int) *schedTrace {
	declareAll(s, oracleDomains)
	s.SetShards(k)
	x := shardedSched{s}
	// At K>1 shards fire concurrently, so only the per-domain traces
	// (each written by its owning shard alone) are recorded.
	tr := &schedTrace{global: k == 1, byDom: make([][]firing, oracleDomains)}
	for dom := 0; dom < oracleDomains; dom++ {
		dom := dom
		s.Domain(dom).Bind(sinkFunc(func(_ uint8, id, budget uint64) {
			fire(x, tr, seed, dom, id, budget)
		}))
	}
	seedRoots(x, seed)
	s.Run()
	return tr
}

func equalFirings(a, b []firing) (int, bool) {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i, false
		}
	}
	return len(a), len(a) == len(b)
}

// TestMatchesReferenceHeap checks Sharded against the container/heap
// oracle on randomized schedules that mix same-cycle After(0) events,
// delays past the calendar horizon, and spill/bucket ties on equal cycles:
// at K=1 the global firing sequence must match the oracle exactly, and at
// every K each domain must fire the oracle's events at the oracle's cycles
// in the oracle's order.
func TestMatchesReferenceHeap(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		want := runReference(seed)
		if len(want.all) < 200 {
			t.Fatalf("seed %d: schedule fired only %d events", seed, len(want.all))
		}
		for _, k := range []int{1, 2, 4} {
			got := runShardedSchedule(seed, k)
			if k == 1 {
				if i, ok := equalFirings(got.all, want.all); !ok {
					t.Fatalf("seed %d K=1: global sequence diverges at event %d (fired %d, oracle %d)",
						seed, i, len(got.all), len(want.all))
				}
			}
			for dom := range want.byDom {
				if i, ok := equalFirings(got.byDom[dom], want.byDom[dom]); !ok {
					t.Fatalf("seed %d K=%d: domain %d diverges at event %d (fired %d, oracle %d)",
						seed, k, dom, i, len(got.byDom[dom]), len(want.byDom[dom]))
				}
			}
		}
	}
}

// TestSameCycleSchedulingOrderProperty fires many events at colliding
// cycles and asserts the global property directly: among a domain's local
// events with equal cycles, firing order equals scheduling order.
func TestSameCycleSchedulingOrderProperty(t *testing.T) {
	r := xrand.New(7)
	s := NewSharded(1)
	d := s.Domain(0)
	type rec struct {
		schedOrder uint64
		cycle      uint64
	}
	var fired []rec
	d.Bind(sinkFunc(func(_ uint8, a, _ uint64) { fired = append(fired, rec{a, d.Now()}) }))
	for i := uint64(0); i < 500; i++ {
		d.After(r.Uint64()%8, 0, i, 0)
	}
	s.Run()
	if len(fired) != 500 {
		t.Fatalf("fired %d of 500", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		prev, cur := fired[i-1], fired[i]
		if cur.cycle < prev.cycle {
			t.Fatalf("cycle went backwards at %d: %d after %d", i, cur.cycle, prev.cycle)
		}
		if cur.cycle == prev.cycle && cur.schedOrder < prev.schedOrder {
			t.Fatalf("same-cycle events out of scheduling order at %d: %d fired after %d",
				i, cur.schedOrder, prev.schedOrder)
		}
	}
}

// TestResetMatchesFresh pins Sharded.Reset: an engine that ran a schedule
// and was left with a later clock, a declared edge and an armed ticker,
// then Reset, fires the next schedule exactly as a NewSharded engine does —
// same per-domain firings at the same cycles, same ledger — at every shard
// count, and its stale ticker never fires. A kept clock shifts every
// cycle; a kept edge table lets a Send on the old edge through.
func TestResetMatchesFresh(t *testing.T) {
	for _, k := range []int{1, 3} {
		s := NewSharded(oracleDomains)
		runScheduleOn(s, 11, 2)
		stale := 0
		s.SetTicker(1, 64, func(uint64) { stale++ })
		s.DeclareEdge(0, 1, 5)
		s.Reset()
		if s.Now() != 0 || s.Shards() != 1 || s.Stats() != (RunStats{}) {
			t.Fatalf("K=%d: Reset left now=%d shards=%d stats=%+v", k, s.Now(), s.Shards(), s.Stats())
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("K=%d: Send on the edge declared before Reset did not panic", k)
				}
			}()
			s.Domain(0).Send(s.Domain(1), 5, 0, 0, 0)
		}()
		got := runScheduleOn(s, 12, k)
		want := runScheduleOn(NewSharded(oracleDomains), 12, k)
		if stale != 0 {
			t.Fatalf("K=%d: a ticker armed before Reset fired %d times after it", k, stale)
		}
		if k == 1 {
			if i, ok := equalFirings(got.all, want.all); !ok {
				t.Fatalf("K=1: global sequence diverges at event %d", i)
			}
		}
		for dom := range want.byDom {
			if i, ok := equalFirings(got.byDom[dom], want.byDom[dom]); !ok {
				t.Fatalf("K=%d: domain %d diverges at event %d (fired %d, fresh %d)",
					k, dom, i, len(got.byDom[dom]), len(want.byDom[dom]))
			}
		}
	}
}
