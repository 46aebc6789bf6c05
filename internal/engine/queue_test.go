package engine

import (
	"encoding/binary"
	"sort"
	"testing"
)

// This file pins the calendar queue: its zero value, spill/bucket ties,
// a fuzzed comparison against a sorted-slice oracle, the engine-level
// ordering contract it serves, and zero steady-state allocation.

// pushEv queues ev through push's scalar arguments.
func pushEv(q *calQueue, ev sevent) { q.push(ev.when, ev.key, ev.a, ev.b, ev.dst, ev.kind) }

// popEv pops the smallest event whatever its cycle. pop hands back no key,
// so the returned event's key is zero; tests that check order put the key
// in a as well.
func popEv(q *calQueue) (sevent, bool) {
	when, dst, kind, a, b, ok := q.pop(noEvent)
	return sevent{when: when, a: a, b: b, dst: dst, kind: kind}, ok
}

func TestZeroValueUsable(t *testing.T) {
	var q calQueue
	if q.len() != 0 || q.minWhen() != noEvent {
		t.Fatalf("zero queue: len=%d minWhen=%d, want empty", q.len(), q.minWhen())
	}
	if _, ok := popEv(&q); ok {
		t.Fatal("pop on the zero queue reported an event")
	}
	pushEv(&q, sevent{when: 3, key: 1, a: 1})
	if q.minWhen() != 3 {
		t.Fatalf("minWhen=%d after push at 3", q.minWhen())
	}
	if _, _, _, _, _, ok := q.pop(3); ok || q.len() != 1 {
		t.Fatalf("pop below cycle 3 took the event at 3 (len %d)", q.len())
	}
	if ev, ok := popEv(&q); !ok || ev.when != 3 || ev.a != 1 || q.len() != 0 {
		t.Fatalf("popped %+v (ok %v), len %d", ev, ok, q.len())
	}
}

// TestSpillBucketTie pins the (when, key) order between the spill heap and
// a bucket at the same cycle: an event pushed beyond the horizon and
// events pushed later, once that cycle is within the horizon, interleave
// by key alone.
func TestSpillBucketTie(t *testing.T) {
	var q calQueue
	pushEv(&q, sevent{when: 5000, key: 10, a: 10}) // beyond the horizon of cycle 0
	if len(q.spill) != 1 {
		t.Fatalf("event at 5000 not spilled (spill %d)", len(q.spill))
	}
	pushEv(&q, sevent{when: 2000, key: 1, a: 1})
	if ev, _ := popEv(&q); ev.when != 2000 {
		t.Fatalf("first pop %+v, want cycle 2000", ev)
	}
	if _, _, _, _, _, ok := q.pop(5000); ok {
		t.Fatal("pop below cycle 5000 took a spilled event at 5000")
	}
	pushEv(&q, sevent{when: 5000, key: 20, a: 20}) // now within the horizon: bucketed
	pushEv(&q, sevent{when: 5000, key: 5, a: 5})
	if q.inBuckets != 2 {
		t.Fatalf("%d bucketed events, want 2", q.inBuckets)
	}
	for _, want := range []uint64{5, 10, 20} {
		if ev, _ := popEv(&q); ev.when != 5000 || ev.a != want {
			t.Fatalf("popped %+v, want (5000, %d)", ev, want)
		}
	}
	if q.len() != 0 {
		t.Fatalf("%d events left", q.len())
	}
}

// FuzzQueueMatchesSort drives the calendar queue with arbitrary pushes and
// pops and checks every pop, minWhen and len against a sorted slice. Each
// 3-byte op either pops (op%4 == 0) or pushes at a delay past the last
// popped cycle drawn from one of several classes: same-cycle, short,
// straddling the horizon, far beyond it, or on a shared 1024-cycle grid
// that makes spilled and bucketed events tie on cycle. Keys are unique
// (a counter) but arrive out of order (the op byte sits above it). Every
// payload field is non-zero and no two fields of one event can be equal —
// a and b differ in their top bits, dst is above any kind — so a push or
// pop that drops or swaps a field fails the comparison.
func FuzzQueueMatchesSort(f *testing.F) {
	f.Add(uint64(0), []byte{1, 0, 5, 5, 0, 9, 0, 0, 0, 13, 1, 2, 0, 0, 0})
	f.Add(uint64(1)<<40, []byte{17, 0, 3, 21, 200, 7, 9, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint64(4095), []byte{13, 255, 255, 1, 0, 1, 0, 0, 0, 12, 0, 0, 0, 0, 0, 0, 0, 0})
	var grid []byte
	for i := 0; i < 64; i++ {
		grid = append(grid, byte(4*(i%8)+2), byte(i*37), byte(i*11))
		if i%5 == 4 {
			grid = append(grid, 0, 0, 0)
		}
	}
	f.Add(uint64(777), grid)
	f.Fuzz(func(t *testing.T, base uint64, ops []byte) {
		base %= 1 << 48 // keep base + delays far from wrapping
		q := calQueue{cur: base}
		var ref []sevent
		last, seq := base, uint64(0)
		check := func(step int) {
			if q.len() != len(ref) {
				t.Fatalf("step %d: len %d, oracle %d", step, q.len(), len(ref))
			}
			want := uint64(noEvent)
			if len(ref) > 0 {
				want = ref[0].when
			}
			if got := q.minWhen(); got != want {
				t.Fatalf("step %d: minWhen %d, oracle %d", step, got, want)
			}
		}
		pop := func(step int) {
			got, _ := popEv(&q)
			want := ref[0]
			ref = ref[1:]
			want.key = 0 // pop hands back no key; a pins the order
			if got != want {
				t.Fatalf("step %d: popped %+v, oracle %+v", step, got, want)
			}
			last = got.when
		}
		for i := 0; i+2 < len(ops); i += 3 {
			op := ops[i]
			d := uint64(binary.BigEndian.Uint16(ops[i+1:]))
			check(i)
			if op%4 == 0 {
				if len(ref) > 0 {
					pop(i)
				}
				continue
			}
			var when uint64
			switch op >> 2 % 8 {
			case 0:
				when = last + d%4
			case 1:
				when = last + horizon - 64 + d%128
			case 2:
				when = last + d
			case 3:
				when = (last/1024 + 1 + d%8) * 1024
			default:
				when = last + d%300
			}
			seq++
			ev := sevent{
				when: when,
				key:  uint64(op)<<48 | seq,
				a:    1<<62 | d<<32 | seq,
				b:    1<<63 | seq<<16 | d,
				dst:  int32(256 + seq),
				kind: op,
			}
			pushEv(&q, ev)
			at := sort.Search(len(ref), func(j int) bool { return ev.less(&ref[j]) })
			ref = append(ref, sevent{})
			copy(ref[at+1:], ref[at:])
			ref[at] = ev
		}
		for step := len(ops); len(ref) > 0; step++ {
			check(step)
			pop(step)
		}
		check(-1)
	})
}

// TestEventOrderingByTime checks that events fire in cycle order whatever
// their scheduling order.
func TestEventOrderingByTime(t *testing.T) {
	s := NewSharded(1)
	d := s.Domain(0)
	var order []uint64
	d.Bind(sinkFunc(func(_ uint8, a, _ uint64) { order = append(order, a) }))
	d.After(30, 0, 3, 0)
	d.After(10, 0, 1, 0)
	d.After(20, 0, 2, 0)
	d.After(horizon+30, 0, 4, 0)
	if final := s.Run(); final != horizon+30 {
		t.Fatalf("final cycle %d", final)
	}
	if len(order) != 4 || order[0] != 1 || order[1] != 2 || order[2] != 3 || order[3] != 4 {
		t.Fatalf("order %v", order)
	}
}

func TestSameCycleFIFO(t *testing.T) {
	s := NewSharded(1)
	d := s.Domain(0)
	var order []uint64
	d.Bind(sinkFunc(func(_ uint8, a, _ uint64) { order = append(order, a) }))
	for i := uint64(0); i < 10; i++ {
		d.After(5, 0, i, 0)
	}
	s.Run()
	for i, v := range order {
		if v != uint64(i) {
			t.Fatalf("same-cycle events fired out of scheduling order: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := NewSharded(1)
	d := s.Domain(0)
	var hits []uint64
	d.Bind(sinkFunc(func(kind uint8, _, _ uint64) {
		hits = append(hits, d.Now())
		switch kind {
		case 1:
			d.After(4, 2, 0, 0)
		case 2:
			d.After(0, 3, 0, 0)
		}
	}))
	d.After(1, 1, 0, 0)
	s.Run()
	want := []uint64{1, 5, 5}
	if len(hits) != 3 || hits[0] != want[0] || hits[1] != want[1] || hits[2] != want[2] {
		t.Fatalf("hits %v, want %v", hits, want)
	}
}

// TestZeroDelayRunsAfterQueuedSameCycle pins After(0): it fires later in
// the same cycle, after the domain's already-queued same-cycle events.
func TestZeroDelayRunsAfterQueuedSameCycle(t *testing.T) {
	s := NewSharded(1)
	d := s.Domain(0)
	var order []uint64
	d.Bind(sinkFunc(func(kind uint8, a, _ uint64) {
		order = append(order, a)
		if kind == 1 {
			d.After(0, 0, 3, 0)
		}
	}))
	d.After(5, 1, 1, 0)
	d.After(5, 0, 2, 0)
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order %v, want [1 2 3]", order)
	}
}

func TestClockMonotone(t *testing.T) {
	s := NewSharded(1)
	d := s.Domain(0)
	var last uint64
	d.Bind(sinkFunc(func(_ uint8, a, _ uint64) {
		if d.Now() < last {
			t.Fatalf("clock went backwards: %d after %d", d.Now(), last)
		}
		last = d.Now()
		if a > 0 {
			d.After(a*997%(2*horizon), 0, a-1, 0)
		}
	}))
	for i := uint64(0); i < 100; i++ {
		d.After(i%7, 0, i%5, 0)
	}
	s.Run()
}

// TestScheduleHandlerAllocFree verifies that a reused sink rescheduling
// itself on one domain allocates nothing once the queue's node slab has
// grown: the bucket path alone, no spill and no ticker.
func TestScheduleHandlerAllocFree(t *testing.T) {
	s := NewSharded(1)
	d := s.Domain(0)
	count := 0
	d.Bind(sinkFunc(func(uint8, uint64, uint64) {
		count++
		if count%2 == 0 {
			d.After(d.Now()%13, 0, 0, 0)
		}
	}))
	// Pre-grow the node slab.
	for i := uint64(0); i < 64; i++ {
		d.After(i%7, 0, 0, 0)
	}
	s.Run()
	allocs := testing.AllocsPerRun(100, func() {
		for i := uint64(0); i < 32; i++ {
			d.After(i%7, 0, 0, 0)
		}
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state After/Run allocates %v per run", allocs)
	}
	if count == 0 {
		t.Fatal("sink never fired")
	}
}

// TestScheduleHandlerSteadyStateAllocFree pins the zero-allocation property
// the simulator's hot path depends on: once the queue's slab and spill heap
// have grown, a K=1 engine scheduling local events, same-shard messages
// and beyond-horizon events under an armed ticker allocates nothing.
func TestScheduleHandlerSteadyStateAllocFree(t *testing.T) {
	s := NewSharded(2)
	s.DeclareEdge(0, 1, 7)
	d0, d1 := s.Domain(0), s.Domain(1)
	d0.Bind(sinkFunc(func(kind uint8, a, b uint64) {
		if a == 0 {
			return
		}
		d0.After(d0.Now()%13, kind, a-1, b)
		if a%3 == 0 {
			d0.Send(d1, 7, kind, a-1, b)
		}
	}))
	d1.Bind(sinkFunc(func(uint8, uint64, uint64) {}))
	ticks := 0
	s.SetTicker(1, 500, func(uint64) { ticks++ })
	round := func() {
		for j := uint64(0); j < 64; j++ {
			d0.After(j%13, 0, j%6, 0)
		}
		d0.After(horizon+50, 0, 2, 0)
		s.Run()
	}
	round() // grow the slab and spill heap to their peak
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("steady-state K=1 schedule/run allocated %.1f times per iteration", allocs)
	}
	if ticks == 0 {
		t.Fatal("ticker never fired")
	}
}
