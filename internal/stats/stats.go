// Package stats collects named counters and derived metrics for simulation
// runs, with stable deterministic rendering.
//
// Counter names are interned in a package-level registry: each distinct name
// resolves once to a dense Counter index, and every writer increments a
// slice slot through a handle it interned at construction (AddC/IncC),
// never hashing a string per event. Get, Names and String are the
// read-only by-name view that reports, examples and tests render.
package stats

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Counter is an interned handle for a counter name. Handles are process-wide:
// the same name yields the same handle in every Counters instance. Obtain one
// with Intern (typically once, at component construction).
type Counter int32

// The registry maps names to dense indices. Interning takes a write lock,
// reads of the name table take a read lock; per-event increments touch only
// the owning Counters value and never the registry.
var registry struct {
	sync.RWMutex
	index map[string]Counter
	names []string
}

// Intern returns the dense handle for name, registering it on first use.
// Safe for concurrent use.
func Intern(name string) Counter {
	registry.RLock()
	c, ok := registry.index[name]
	registry.RUnlock()
	if ok {
		return c
	}
	registry.Lock()
	defer registry.Unlock()
	if c, ok := registry.index[name]; ok {
		return c
	}
	if registry.index == nil {
		registry.index = make(map[string]Counter, 64)
	}
	c = Counter(len(registry.names))
	registry.index[name] = c
	registry.names = append(registry.names, name)
	return c
}

// counterName returns the name a handle was interned under.
func counterName(c Counter) string {
	registry.RLock()
	defer registry.RUnlock()
	return registry.names[c]
}

// numCounters returns how many distinct names have been interned.
func numCounters() int {
	registry.RLock()
	defer registry.RUnlock()
	return len(registry.names)
}

func lookup(name string) (Counter, bool) {
	registry.RLock()
	c, ok := registry.index[name]
	registry.RUnlock()
	return c, ok
}

// Counters is a set of named uint64 counters. The zero value is ready to
// use. A Counters value is not safe for concurrent use; distinct instances
// are independent and may be used from different goroutines.
type Counters struct {
	vals []uint64
}

// grow extends the dense value slice to cover handle c. Out of the hot path:
// it runs at most once per (instance, new high handle) pair.
func (c *Counters) grow(h Counter) {
	n := numCounters()
	if n <= int(h) {
		n = int(h) + 1
	}
	vals := make([]uint64, n)
	copy(vals, c.vals)
	c.vals = vals
}

// AddC increments the counter behind an interned handle by n.
func (c *Counters) AddC(h Counter, n uint64) {
	if int(h) >= len(c.vals) {
		c.grow(h)
	}
	c.vals[h] += n
}

// IncC increments the counter behind an interned handle by one.
func (c *Counters) IncC(h Counter) { c.AddC(h, 1) }

// GetC returns the value behind an interned handle.
func (c *Counters) GetC(h Counter) uint64 {
	if int(h) >= len(c.vals) {
		return 0
	}
	return c.vals[h]
}

// Reset zeroes every counter, keeping the storage.
func (c *Counters) Reset() {
	for i := range c.vals {
		c.vals[i] = 0
	}
}

// Clone returns an independent copy of c.
func (c *Counters) Clone() *Counters {
	return &Counters{vals: slices.Clone(c.vals)}
}

// MergeFrom adds every counter of src into c. Handles are process-wide, so
// the sum is well-defined across instances; merging a fixed sequence of
// instances is deterministic regardless of which goroutines incremented
// them (addition commutes).
func (c *Counters) MergeFrom(src *Counters) {
	if len(src.vals) > len(c.vals) {
		c.grow(Counter(len(src.vals) - 1))
	}
	for i, v := range src.vals {
		if v != 0 {
			c.vals[i] += v
		}
	}
}

// Get returns a counter's value (zero if never touched).
func (c *Counters) Get(name string) uint64 {
	h, ok := lookup(name)
	if !ok {
		return 0
	}
	return c.GetC(h)
}

// Names returns the names of all nonzero counters in sorted order.
func (c *Counters) Names() []string {
	names := make([]string, 0, len(c.vals))
	for h, v := range c.vals {
		if v != 0 {
			names = append(names, counterName(Counter(h)))
		}
	}
	sort.Strings(names)
	return names
}

// String renders the counters one per line, sorted by name.
func (c *Counters) String() string {
	var sb strings.Builder
	for _, n := range c.Names() {
		fmt.Fprintf(&sb, "%-40s %12d\n", n, c.Get(n))
	}
	return sb.String()
}

// MPKI computes misses per kilo-instruction.
func MPKI(misses, instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(misses) * 1000 / float64(instructions)
}

// Ratio returns a/b as float (0 when b is 0).
func Ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
