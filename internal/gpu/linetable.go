package gpu

import "math/bits"

// lineTable is an open-addressed hash table from line address to that
// line's write version (high 32 bits) and in-flight L2-side read count
// (low 32 bits, two's complement). It replaces two runtime maps on the
// simulator's hottest paths — the store path's version bump and the L1
// miss path's pending increment/retire — with single-probe fibonacci
// hashing and linear probing, and merges the two lookups those paths used
// to make into one.
//
// Entries are only ever removed wholesale (System.pruneLines rebuilds the
// table without the dead entries), so probing needs no tombstones.
type lineTable struct {
	keys []uint64 // lineAddr+1; 0 marks an empty slot
	vals []uint64 // version<<32 | uint32(pending)
	live int
	// shift maps the fibonacci product's high bits onto the table size:
	// len(keys) == 1<<(64-shift).
	shift uint
}

const lineTableMinCap = 1024 // power of two

func packedVersion(v uint64) uint32 { return uint32(v >> 32) }
func packedPending(v uint64) int32  { return int32(uint32(v)) }

// init replaces the table with an empty one of at least the given capacity.
func (t *lineTable) init(capacity int) {
	n := lineTableMinCap
	for n < capacity {
		n <<= 1
	}
	t.keys = make([]uint64, n)
	t.vals = make([]uint64, n)
	t.live = 0
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
}

// reset empties the table in place, keeping its capacity. Capacity never
// shows in lookups, so a reset table reads exactly as a new one.
func (t *lineTable) reset() {
	clear(t.keys)
	clear(t.vals)
	t.live = 0
}

func (t *lineTable) idx(key uint64) uint64 {
	return key * 0x9e3779b97f4a7c15 >> t.shift
}

// get returns the packed value for lineAddr, or 0 when absent (a zero
// value and an absent entry are semantically identical: version 0, no
// in-flight reads).
func (t *lineTable) get(lineAddr uint64) uint64 {
	if t.keys == nil {
		return 0
	}
	k := lineAddr + 1
	mask := uint64(len(t.keys) - 1)
	for i := t.idx(k); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case k:
			return t.vals[i]
		case 0:
			return 0
		}
	}
}

// ref returns a pointer to lineAddr's packed value, inserting a zero entry
// (and growing the table) as needed. The pointer is invalidated by the
// next ref call.
func (t *lineTable) ref(lineAddr uint64) *uint64 {
	if t.keys == nil {
		t.init(lineTableMinCap)
	} else if 4*(t.live+1) > 3*len(t.keys) {
		t.grow()
	}
	k := lineAddr + 1
	mask := uint64(len(t.keys) - 1)
	for i := t.idx(k); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case k:
			return &t.vals[i]
		case 0:
			t.keys[i] = k
			t.live++
			return &t.vals[i]
		}
	}
}

func (t *lineTable) grow() {
	old := *t
	t.init(2 * len(old.keys))
	for i, k := range old.keys {
		if k != 0 {
			*t.ref(k - 1) = old.vals[i]
		}
	}
}
