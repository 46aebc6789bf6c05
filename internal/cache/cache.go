// Package cache provides the generic set-associative cache structure shared
// by the simulated GPU L2 and by Killi's ECC cache.
//
// The structure manages tags, validity, true-LRU recency, and victim
// selection. It is policy-free: protection schemes influence replacement
// through per-entry Class/Disabled markers and custom VictimFunc
// implementations (the paper stresses that Killi "is designed to be
// independent of cache policies"; the seam lives here).
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes a cache geometry.
type Config struct {
	// Sets is the number of sets (must be a power of two for address
	// slicing; Lookup by explicit set index works regardless).
	Sets int
	// Ways is the associativity.
	Ways int
	// LineBytes is the line size used by Index/Tag address splitting.
	LineBytes int
}

// Lines returns the total line count.
func (c Config) Lines() int { return c.Sets * c.Ways }

func (c Config) validate() error {
	if c.Sets <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: sets=%d ways=%d must be positive", c.Sets, c.Ways)
	}
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d must be a positive power of two", c.LineBytes)
	}
	return nil
}

// Entry is one tag-array entry. Protection schemes own Class and Disabled;
// the cache core maintains Tag, Valid, and LastUse. Field order and the
// one-byte Class pack the struct into 24 bytes.
type Entry struct {
	// Tag is written only by Install, which also mirrors it into the
	// cache's packed tag words; writing it through Entry or Set would leave
	// Lookup reading the old tag.
	Tag uint64
	// LastUse is the recency stamp maintained by Touch/Install; larger is
	// more recent.
	LastUse uint64
	// Class is scheme-defined (Killi stores the DFH state here so its
	// allocation priority can see it).
	Class uint8
	Valid bool
	// Disabled marks a line the replacement policy must never select and
	// lookups must never hit (Killi's b'11, MBIST-disabled lines, MS-ECC
	// capacity loss).
	Disabled bool
}

// VictimFunc picks a victim way from a set's entries, or -1 if no entry may
// be victimized. Entries with Disabled set must not be returned.
type VictimFunc func(entries []Entry) int

// Cache is a set-associative tag store. Construct with New.
type Cache struct {
	cfg Config
	// entries holds every set's ways contiguously (set-major); tags mirrors
	// each entry's Tag in one dense word array, so Lookup scans 16 tags in
	// two cache lines and touches an Entry only on a tag match.
	entries []Entry
	tags    []uint64
	clock   uint64
	// Address-slicing fast path: LineBytes is always a power of two and
	// Sets almost always is, so Index/Tag — on the critical path of every
	// simulated access — run as shifts and masks instead of div/mod.
	lineShift uint
	setShift  uint
	setMask   uint64
	pow2Sets  bool
}

// New returns an empty cache with the given geometry. It panics on invalid
// configuration (construction-time programmer error).
func New(cfg Config) *Cache {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	c := &Cache{cfg: cfg, entries: make([]Entry, cfg.Lines()), tags: make([]uint64, cfg.Lines())}
	c.lineShift = uint(bits.TrailingZeros64(uint64(cfg.LineBytes)))
	if cfg.Sets&(cfg.Sets-1) == 0 {
		c.pow2Sets = true
		c.setShift = uint(bits.TrailingZeros64(uint64(cfg.Sets)))
		c.setMask = uint64(cfg.Sets - 1)
	}
	return c
}

// Reset empties the cache in place — every entry zeroed, recency clock
// restarted — leaving it as New returned it, without allocating.
func (c *Cache) Reset() {
	clear(c.entries)
	clear(c.tags)
	c.clock = 0
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Index returns the set index for an address.
func (c *Cache) Index(addr uint64) int {
	if c.pow2Sets {
		return int(addr >> c.lineShift & c.setMask)
	}
	return int(addr >> c.lineShift % uint64(c.cfg.Sets))
}

// Tag returns the tag for an address.
func (c *Cache) Tag(addr uint64) uint64 {
	if c.pow2Sets {
		return addr >> c.lineShift >> c.setShift
	}
	return addr >> c.lineShift / uint64(c.cfg.Sets)
}

// LineID returns a dense identifier for (set, way), usable as a data-array
// index.
func (c *Cache) LineID(set, way int) int { return set*c.cfg.Ways + way }

// Lookup searches a set for a valid, enabled entry with the given tag. It
// scans the set's packed tag words and reads an entry's flags only when
// its tag matches, so a miss touches no Entry at all.
func (c *Cache) Lookup(set int, tag uint64) (way int, hit bool) {
	base := set * c.cfg.Ways
	for w, t := range c.tags[base : base+c.cfg.Ways] {
		if t == tag {
			if e := &c.entries[base+w]; e.Valid && !e.Disabled {
				return w, true
			}
		}
	}
	return -1, false
}

// Entry returns a pointer to the entry at (set, way) for inspection or
// scheme-state mutation.
func (c *Cache) Entry(set, way int) *Entry { return &c.entries[set*c.cfg.Ways+way] }

// Set returns the entries of a set. The slice aliases cache state; it is
// provided for read-mostly policy decisions and statistics.
func (c *Cache) Set(set int) []Entry {
	base := set * c.cfg.Ways
	return c.entries[base : base+c.cfg.Ways : base+c.cfg.Ways]
}

// Touch marks (set, way) most recently used.
func (c *Cache) Touch(set, way int) {
	c.clock++
	c.Entry(set, way).LastUse = c.clock
}

// Install fills (set, way) with tag, marks it valid and most recently used.
// The entry's Class is preserved: Killi's DFH state is a property of the
// physical line, persistent across data installations (§4.4).
func (c *Cache) Install(set, way int, tag uint64) {
	e := c.Entry(set, way)
	if e.Disabled {
		panic(fmt.Sprintf("cache: Install into disabled line set=%d way=%d", set, way))
	}
	e.Tag = tag
	c.tags[set*c.cfg.Ways+way] = tag
	e.Valid = true
	c.Touch(set, way)
}

// Invalidate clears the valid bit at (set, way). Class and Disabled are
// preserved.
func (c *Cache) Invalidate(set, way int) {
	c.Entry(set, way).Valid = false
}

// Victim picks a victim in the set using pick (LRUVictim if nil).
func (c *Cache) Victim(set int, pick VictimFunc) (way int, ok bool) {
	if pick == nil {
		pick = LRUVictim
	}
	es := c.Set(set)
	w := pick(es)
	if w < 0 {
		return -1, false
	}
	if es[w].Disabled {
		panic("cache: victim function returned a disabled way")
	}
	return w, true
}

// LRUVictim is the default policy: prefer an invalid enabled way; otherwise
// evict the least recently used valid enabled way; -1 if every way is
// disabled.
func LRUVictim(entries []Entry) int {
	victim := -1
	var oldest uint64
	for w := range entries {
		e := &entries[w]
		if e.Disabled {
			continue
		}
		if !e.Valid {
			return w
		}
		if victim == -1 || e.LastUse < oldest {
			victim = w
			oldest = e.LastUse
		}
	}
	return victim
}

// DisabledLines counts disabled lines across the whole cache.
func (c *Cache) DisabledLines() int {
	n := 0
	for i := range c.entries {
		if c.entries[i].Disabled {
			n++
		}
	}
	return n
}

// ForEach visits every (set, way, entry) for statistics and bulk state
// transitions (e.g. Killi's DFH reset on a voltage change).
func (c *Cache) ForEach(fn func(set, way int, e *Entry)) {
	for s := 0; s < c.cfg.Sets; s++ {
		es := c.Set(s)
		for w := range es {
			fn(s, w, &es[w])
		}
	}
}
