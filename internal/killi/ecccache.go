package killi

import "killi/internal/cache"

// eccEntry is one ECC cache line (paper Table 3: 41 bits — 11 SECDED
// checkbits + 12 overflow parity bits + the index/way tag; our tag lives in
// the cache structure). In DECTED mode the 11+12 bits are recombined into a
// 21-bit DECTED code plus 2 spare (§5.2 / §5.6.1). The model keeps only
// the parity bits: the checkbits are a pure function of the payload they
// cover, so codecs.observe derives them from it when a read needs them.
type eccEntry struct {
	parity12 uint16 // the 12 high parity bits of an Initial line
}

// eccCache is Killi's on-demand error-correction metadata store: a small
// set-associative cache holding checkbits for the subset of L2 lines that
// currently need them (all Initial lines plus Stable1 lines). It is indexed
// by the L2 set (same physical address), and its tags hold the protected
// line's dense (set, way) identifier rather than the physical address,
// which is what keeps its tag area small.
type eccCache struct {
	tags    *cache.Cache
	entries []eccEntry
	// xorIndex folds high L2-set bits into the ECC set index, spreading
	// the aliasing pattern (an ablation of the paper's direct modulo
	// indexing).
	xorIndex bool
}

// newECCCache sizes the ECC cache for an L2 of l2Lines lines at the given
// ratio (entries = l2Lines / ratio) with the paper's 4-way associativity.
func newECCCache(l2Lines, ratio, assoc int) *eccCache {
	entries := l2Lines / ratio
	if entries < 1 {
		entries = 1
	}
	if entries < assoc {
		// Degenerate sizing (a small L2 bank at a large ratio): shrink the
		// associativity instead of padding capacity up to a full set, so
		// the total entry budget — the paper's 1:ratio provisioning, and
		// the contention behavior it drives — is preserved when the L2 is
		// split into per-bank slices.
		assoc = entries
	}
	sets := entries / assoc
	if sets < 1 {
		sets = 1
	}
	return &eccCache{
		tags:    cache.New(cache.Config{Sets: sets, Ways: assoc, LineBytes: 64}),
		entries: make([]eccEntry, sets*assoc),
	}
}

// Entries returns the ECC cache capacity in entries.
func (e *eccCache) Entries() int { return e.tags.Config().Lines() }

// setFor maps an L2 set to the ECC cache set serving it. Disjoint L2 sets
// alias onto the same ECC set — the contention the paper discusses. The
// default is the paper's same-physical-address (modulo) indexing; the
// xorIndex ablation folds the high bits in first.
func (e *eccCache) setFor(l2Set int) int {
	sets := e.tags.Config().Sets
	if e.xorIndex {
		return (l2Set ^ (l2Set / sets) ^ (l2Set / (sets * sets))) % sets
	}
	return l2Set % sets
}

// lookup finds the entry protecting l2Line (a dense L2 line ID), if
// present.
func (e *eccCache) lookup(l2Set, l2Line int) (*eccEntry, int, int, bool) {
	set := e.setFor(l2Set)
	way, hit := e.tags.Lookup(set, uint64(l2Line))
	if !hit {
		return nil, 0, 0, false
	}
	return &e.entries[e.tags.LineID(set, way)], set, way, true
}

// touch promotes the entry protecting l2Line to MRU — the coordinated
// replacement of §4.4.
func (e *eccCache) touch(set, way int) { e.tags.Touch(set, way) }

// allocate obtains an entry for l2Line, evicting the LRU entry of the
// target set if needed. When an eviction occurs, it returns the dense line
// ID of the L2 line that just lost its protection (evictedLine >= 0)
// together with a copy of the dying entry, so the caller can classify the
// victim line's DFH while its checkbits are still known — the eviction
// training of §4.4 applied to ECC-cache-contention evictions.
func (e *eccCache) allocate(l2Set, l2Line int) (entry *eccEntry, evictedLine int, old eccEntry) {
	evictedLine = -1
	if got, _, way, hit := e.lookup(l2Set, l2Line); hit {
		e.tags.Touch(e.setFor(l2Set), way)
		return got, -1, eccEntry{}
	}
	set := e.setFor(l2Set)
	way, ok := e.tags.Victim(set, nil)
	if !ok {
		// Cannot happen: ECC cache entries are never disabled.
		panic("killi: ECC cache victim unavailable")
	}
	id := e.tags.LineID(set, way)
	if v := e.tags.Entry(set, way); v.Valid {
		evictedLine = int(v.Tag)
		old = e.entries[id]
	}
	e.tags.Install(set, way, uint64(l2Line))
	e.entries[id] = eccEntry{}
	return &e.entries[id], evictedLine, old
}

// invalidate frees the entry protecting l2Line, if present.
func (e *eccCache) invalidate(l2Set, l2Line int) {
	if _, set, way, hit := e.lookup(l2Set, l2Line); hit {
		e.tags.Invalidate(set, way)
	}
}

// reset clears every entry.
func (e *eccCache) reset() {
	e.tags.ForEach(func(set, way int, entry *cache.Entry) {
		entry.Valid = false
	})
	for i := range e.entries {
		e.entries[i] = eccEntry{}
	}
}

// occupancy returns the number of valid entries.
func (e *eccCache) occupancy() int {
	n := 0
	e.tags.ForEach(func(set, way int, entry *cache.Entry) {
		if entry.Valid {
			n++
		}
	})
	return n
}
