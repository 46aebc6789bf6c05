package engine

import "math/bits"

// This file implements a shard's event queue: a calendar queue (Brown,
// "Calendar Queues", CACM 1988) with one bucket per cycle over a fixed
// horizon, backed by a four-ary min-heap for the rare events scheduled
// beyond it.
//
// The simulator's push delays are bounded small integers and its queue
// holds a few hundred events, so almost every event lands within the
// horizon of the current cycle: push is a bucket insert and pop is a
// bucket unlink plus an occupancy-bitmap scan, both O(1) in the queue
// size. Bucket lists are intrusive over one shared node slab with a free
// list, so steady-state operation allocates nothing and the memory held
// is proportional to the peak number of queued events, not to the
// number of buckets.

const (
	horizonBits = 12
	// horizon is the number of per-cycle buckets: an event within
	// horizon cycles of the queue's lower bound goes to a bucket, a later
	// one to the spill heap.
	horizon     = 1 << horizonBits
	horizonMask = horizon - 1
	bitmapWords = horizon / 64
)

// One 64-bit summary word indexes the occupancy words, bit w for word w,
// so there may be at most 64 of them (horizonBits <= 12). Past that the
// extra words drop out of the index silently and pop never finds their
// events: the simulation hangs. This constant overflows uint64, failing
// the build, when bitmapWords > 64.
const _ uint64 = 1<<bitmapWords - 1

// sevent is one queued event: payload (kind, a, b) for the sink of domain
// dst, firing at cycle `when`, totally ordered by (when, key).
type sevent struct {
	when uint64
	key  uint64
	a, b uint64
	dst  int32
	kind uint8
}

func (e *sevent) less(o *sevent) bool {
	if e.when != o.when {
		return e.when < o.when
	}
	return e.key < o.key
}

// qnode is a slab slot: an event plus the slab index of the next node in
// its bucket (or in the free list).
type qnode struct {
	ev   sevent
	next int32
}

// calQueue is a min-queue of sevents ordered by (when, key). Every queued
// event has when >= cur; bucket events additionally have when < cur +
// horizon, so a bucket holds events of exactly one cycle, in ascending key
// order. The zero value is an empty queue with lower bound 0.
type calQueue struct {
	// cur is a lower bound on every queued event's cycle; pop raises it
	// to the popped cycle.
	cur uint64
	// near caches the cycle of the nearest non-empty bucket while nearOK;
	// it lets minWhen followed by pop scan the bitmap once.
	near   uint64
	nearOK bool
	// inBuckets counts the events held in buckets.
	inBuckets int
	// occ has bit i set iff bucket i is non-empty; summary has bit w set
	// iff occ[w] != 0.
	summary uint64
	occ     [bitmapWords]uint64
	// head/tail are slab indices of each bucket's first and last node,
	// meaningful only while the bucket's occ bit is set.
	head, tail [horizon]int32
	nodes      []qnode
	// free is 1 + the slab index of the first free node; 0 = none.
	free int32
	// spill is a four-ary min-heap of the events beyond the horizon.
	spill []sevent
}

// len returns the number of queued events.
func (q *calQueue) len() int { return q.inBuckets + len(q.spill) }

// push queues the event (when, key) carrying payload (kind, a, b) for
// domain dst. when must be >= the cycle of the last popped event (pushes
// never schedule into the past). The event arrives as scalars and is
// stored field by field: a struct argument would be spilled with narrow
// stores and reloaded with wide ones that straddle them, missing
// store-to-load forwarding on every push.
func (q *calQueue) push(when, key, a, b uint64, dst int32, kind uint8) {
	if when-q.cur >= horizon {
		q.spill = append(q.spill, sevent{when: when, key: key, a: a, b: b, dst: dst, kind: kind})
		siftUp(q.spill, len(q.spill)-1)
		return
	}
	n := q.alloc()
	ev := &q.nodes[n].ev
	ev.when, ev.key, ev.a, ev.b, ev.dst, ev.kind = when, key, a, b, dst, kind
	i := when & horizonMask
	w, bit := i>>6, uint64(1)<<(i&63)
	if q.occ[w]&bit == 0 {
		q.occ[w] |= bit
		q.summary |= 1 << w
		q.head[i], q.tail[i] = n, n
	} else if t := q.tail[i]; q.nodes[t].ev.key < key {
		q.nodes[t].next = n
		q.tail[i] = n
	} else {
		// Out-of-order key: walk to the first node with a larger key.
		p := q.head[i]
		if key < q.nodes[p].ev.key {
			q.nodes[n].next = p
			q.head[i] = n
		} else {
			for nx := q.nodes[p].next; q.nodes[nx].ev.key < key; nx = q.nodes[p].next {
				p = nx
			}
			q.nodes[n].next = q.nodes[p].next
			q.nodes[p].next = n
		}
	}
	if q.inBuckets == 0 || (q.nearOK && when < q.near) {
		q.near, q.nearOK = when, true
	}
	q.inBuckets++
}

// alloc returns a free slab index, growing the slab when none is free.
func (q *calQueue) alloc() int32 {
	if q.free != 0 {
		n := q.free - 1
		q.free = q.nodes[n].next
		return n
	}
	q.nodes = append(q.nodes, qnode{})
	return int32(len(q.nodes) - 1)
}

// nearest returns the cycle of the nearest non-empty bucket, or noEvent
// when the buckets are empty. It scans the occupancy bitmap at most once
// between bucket changes that could move the answer.
func (q *calQueue) nearest() uint64 {
	if q.inBuckets == 0 {
		return noEvent
	}
	if q.nearOK {
		return q.near
	}
	i := q.cur & horizonMask
	w := i >> 6
	var pos uint64
	if word := q.occ[w] &^ (1<<(i&63) - 1); word != 0 {
		pos = w<<6 | uint64(bits.TrailingZeros64(word))
	} else {
		// Words after w first, then wrap around to the lowest word (which
		// may be w itself, holding only bits below i).
		s := q.summary &^ (1<<(w+1) - 1)
		if s == 0 {
			s = q.summary
		}
		w2 := uint64(bits.TrailingZeros64(s))
		pos = w2<<6 | uint64(bits.TrailingZeros64(q.occ[w2]))
	}
	q.near, q.nearOK = q.cur+(pos-i)&horizonMask, true
	return q.near
}

// minWhen returns the earliest queued cycle, or noEvent when empty.
func (q *calQueue) minWhen() uint64 {
	m := q.nearest()
	if len(q.spill) > 0 && q.spill[0].when < m {
		return q.spill[0].when
	}
	return m
}

// pop removes the (when, key)-smallest event when its cycle is below
// bound and returns its fields with ok set; otherwise it leaves the queue
// unchanged and returns ok false (always, when the queue is empty). Like
// push it moves the event as scalars, never as a struct value.
func (q *calQueue) pop(bound uint64) (when uint64, dst int32, kind uint8, a, b uint64, ok bool) {
	m := q.nearest()
	if len(q.spill) > 0 && (m == noEvent || q.spill[0].less(&q.nodes[q.head[m&horizonMask]].ev)) {
		top := &q.spill[0]
		if top.when >= bound {
			return
		}
		when, dst, kind, a, b = top.when, top.dst, top.kind, top.a, top.b
		last := len(q.spill) - 1
		q.spill[0] = q.spill[last]
		q.spill = q.spill[:last]
		if last > 0 {
			siftDown(q.spill, 0)
		}
		q.cur = when
		return when, dst, kind, a, b, true
	}
	if m >= bound {
		return
	}
	i := m & horizonMask
	n := q.head[i]
	node := &q.nodes[n]
	when, dst, kind, a, b = node.ev.when, node.ev.dst, node.ev.kind, node.ev.a, node.ev.b
	if n == q.tail[i] {
		w := i >> 6
		q.occ[w] &^= 1 << (i & 63)
		if q.occ[w] == 0 {
			q.summary &^= 1 << w
		}
		q.nearOK = false
	} else {
		q.head[i] = node.next
	}
	node.next = q.free
	q.free = n + 1
	q.inBuckets--
	q.cur = m
	return when, dst, kind, a, b, true
}

func siftUp(h []sevent, i int) {
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.less(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

// siftDown restores the four-ary heap property at index i, assuming the
// subtrees below are already heaps: bottom-up hole sift — walk the hole
// down the min-child path, then sift the displaced element back up.
func siftDown(h []sevent, i int) {
	n := len(h)
	moved := h[i]
	start := i
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if h[c].less(&h[best]) {
				best = c
			}
		}
		h[i] = h[best]
		i = best
	}
	for i > start {
		parent := (i - 1) / 4
		if parent < start {
			break
		}
		if !moved.less(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = moved
}
