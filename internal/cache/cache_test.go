package cache

import (
	"testing"

	"killi/internal/xrand"
)

func newTestCache(t *testing.T) *Cache {
	t.Helper()
	return New(Config{Sets: 8, Ways: 4, LineBytes: 64})
}

func TestConfigLines(t *testing.T) {
	if (Config{Sets: 2048, Ways: 16, LineBytes: 64}).Lines() != 32768 {
		t.Fatal("2MB L2 geometry line count wrong")
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	for name, cfg := range map[string]Config{
		"zero sets": {Sets: 0, Ways: 4, LineBytes: 64},
		"zero ways": {Sets: 8, Ways: 0, LineBytes: 64},
		"npo2 line": {Sets: 8, Ways: 4, LineBytes: 48},
		"zero line": {Sets: 8, Ways: 4, LineBytes: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			New(cfg)
		}()
	}
}

func TestAddressSplit(t *testing.T) {
	c := newTestCache(t)
	// addr = tag*sets*64 + set*64 + offset
	addr := uint64(5*8*64 + 3*64 + 17)
	if c.Index(addr) != 3 {
		t.Fatalf("Index = %d, want 3", c.Index(addr))
	}
	if c.Tag(addr) != 5 {
		t.Fatalf("Tag = %d, want 5", c.Tag(addr))
	}
}

func TestLookupMissOnEmpty(t *testing.T) {
	c := newTestCache(t)
	if _, hit := c.Lookup(0, 42); hit {
		t.Fatal("hit in empty cache")
	}
}

func TestInstallThenHit(t *testing.T) {
	c := newTestCache(t)
	c.Install(2, 1, 99)
	way, hit := c.Lookup(2, 99)
	if !hit || way != 1 {
		t.Fatalf("lookup after install: way=%d hit=%v", way, hit)
	}
	if _, hit := c.Lookup(3, 99); hit {
		t.Fatal("hit in wrong set")
	}
}

func TestInvalidate(t *testing.T) {
	c := newTestCache(t)
	c.Install(0, 0, 7)
	c.Invalidate(0, 0)
	if _, hit := c.Lookup(0, 7); hit {
		t.Fatal("hit after invalidate")
	}
}

func TestDisabledLineNeverHits(t *testing.T) {
	c := newTestCache(t)
	c.Install(0, 0, 7)
	c.Entry(0, 0).Disabled = true
	if _, hit := c.Lookup(0, 7); hit {
		t.Fatal("disabled line produced a hit")
	}
}

func TestLRUVictimPrefersInvalid(t *testing.T) {
	c := newTestCache(t)
	for w := 0; w < 3; w++ {
		c.Install(0, w, uint64(w))
	}
	way, ok := c.Victim(0, nil)
	if !ok || way != 3 {
		t.Fatalf("victim = %d, want the invalid way 3", way)
	}
}

func TestLRUVictimEvictsOldest(t *testing.T) {
	c := newTestCache(t)
	for w := 0; w < 4; w++ {
		c.Install(0, w, uint64(w))
	}
	// Touch everything except way 2.
	c.Touch(0, 0)
	c.Touch(0, 1)
	c.Touch(0, 3)
	way, ok := c.Victim(0, nil)
	if !ok || way != 2 {
		t.Fatalf("victim = %d, want LRU way 2", way)
	}
}

func TestLRUVictimSkipsDisabled(t *testing.T) {
	c := newTestCache(t)
	for w := 0; w < 4; w++ {
		c.Install(0, w, uint64(w))
	}
	c.Entry(0, 1).Disabled = true // way 1 would otherwise be... make it LRU
	way, ok := c.Victim(0, nil)
	if !ok || way == 1 {
		t.Fatalf("victim = %d; disabled way must be skipped", way)
	}
}

func TestVictimNoneWhenAllDisabled(t *testing.T) {
	c := newTestCache(t)
	for w := 0; w < 4; w++ {
		c.Entry(0, w).Disabled = true
	}
	if _, ok := c.Victim(0, nil); ok {
		t.Fatal("victim found in fully disabled set")
	}
}

func TestVictimPanicsOnDisabledPick(t *testing.T) {
	c := newTestCache(t)
	c.Entry(0, 0).Disabled = true
	defer func() {
		if recover() == nil {
			t.Fatal("picking a disabled victim did not panic")
		}
	}()
	c.Victim(0, func(entries []Entry) int { return 0 })
}

func TestInstallPanicsOnDisabled(t *testing.T) {
	c := newTestCache(t)
	c.Entry(0, 0).Disabled = true
	defer func() {
		if recover() == nil {
			t.Fatal("install into disabled line did not panic")
		}
	}()
	c.Install(0, 0, 1)
}

func TestInstallPreservesClass(t *testing.T) {
	c := newTestCache(t)
	c.Entry(0, 0).Class = 2
	c.Install(0, 0, 5)
	if c.Entry(0, 0).Class != 2 {
		t.Fatal("Install clobbered Class; DFH must persist across data installs")
	}
}

func TestCustomVictimFunc(t *testing.T) {
	c := newTestCache(t)
	for w := 0; w < 4; w++ {
		c.Install(0, w, uint64(w))
		c.Entry(0, w).Class = uint8(w)
	}
	// Priority: highest class first (a stand-in for Killi's b'01 > b'00 > b'10).
	pick := func(entries []Entry) int {
		best, bestClass := -1, -1
		for w := range entries {
			if entries[w].Disabled {
				continue
			}
			if int(entries[w].Class) > bestClass {
				best, bestClass = w, int(entries[w].Class)
			}
		}
		return best
	}
	way, ok := c.Victim(0, pick)
	if !ok || way != 3 {
		t.Fatalf("custom victim = %d, want 3", way)
	}
}

func TestEnabledWaysAndDisabledLines(t *testing.T) {
	c := newTestCache(t)
	c.Entry(0, 0).Disabled = true
	c.Entry(3, 2).Disabled = true
	if c.EnabledWays(0) != 3 {
		t.Fatalf("EnabledWays = %d", c.EnabledWays(0))
	}
	if c.DisabledLines() != 2 {
		t.Fatalf("DisabledLines = %d", c.DisabledLines())
	}
}

func TestLineIDDense(t *testing.T) {
	c := newTestCache(t)
	seen := map[int]bool{}
	c.ForEach(func(set, way int, e *Entry) {
		id := c.LineID(set, way)
		if id < 0 || id >= c.Config().Lines() || seen[id] {
			t.Fatalf("LineID(%d,%d)=%d invalid", set, way, id)
		}
		seen[id] = true
	})
	if len(seen) != c.Config().Lines() {
		t.Fatal("LineID not a bijection")
	}
}

func TestLRUStressProperty(t *testing.T) {
	// Model check against a reference LRU implementation.
	c := New(Config{Sets: 1, Ways: 4, LineBytes: 64})
	r := xrand.New(1)
	type ref struct{ order []uint64 } // most recent last
	var m ref
	refTouch := func(tag uint64) {
		for i, t := range m.order {
			if t == tag {
				m.order = append(m.order[:i], m.order[i+1:]...)
				break
			}
		}
		m.order = append(m.order, tag)
	}
	for step := 0; step < 10000; step++ {
		tag := uint64(r.Intn(8))
		if way, hit := c.Lookup(0, tag); hit {
			c.Touch(0, way)
			refTouch(tag)
			continue
		}
		way, ok := c.Victim(0, nil)
		if !ok {
			t.Fatal("no victim")
		}
		if c.Entry(0, way).Valid {
			// Must be the reference's LRU (front).
			if c.Entry(0, way).Tag != m.order[0] {
				t.Fatalf("step %d: evicted %d, reference LRU %d", step, c.Entry(0, way).Tag, m.order[0])
			}
			m.order = m.order[1:]
		}
		c.Install(0, way, tag)
		refTouch(tag)
		if len(m.order) > 4 {
			t.Fatal("reference model overflow")
		}
	}
}

func BenchmarkLookupHit(b *testing.B) {
	c := New(Config{Sets: 2048, Ways: 16, LineBytes: 64})
	for w := 0; w < 16; w++ {
		c.Install(0, w, uint64(w))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = c.Lookup(0, uint64(i&15))
	}
}

// TestLookupMatchesEntryScan pins the packed tag words against the entries
// they mirror: under random installs, invalidations, disables and resets,
// Lookup returns the first way whose Entry has the tag and is valid and
// enabled — duplicate tags left behind in invalid or disabled ways
// included — exactly as a scan of Set would.
func TestLookupMatchesEntryScan(t *testing.T) {
	c := New(Config{Sets: 4, Ways: 8, LineBytes: 64})
	r := xrand.New(5)
	scan := func(set int, tag uint64) (int, bool) {
		for w, e := range c.Set(set) {
			if e.Tag == tag && e.Valid && !e.Disabled {
				return w, true
			}
		}
		return -1, false
	}
	for step := 0; step < 20000; step++ {
		set, way, tag := r.Intn(4), r.Intn(8), uint64(r.Intn(6))
		switch op := r.Intn(100); {
		case op < 45:
			if !c.Entry(set, way).Disabled {
				c.Install(set, way, tag)
			}
		case op < 75:
			c.Invalidate(set, way)
		case op < 90:
			c.Entry(set, way).Disabled = r.Intn(2) == 0
		case op == 99:
			c.Reset()
		}
		for s := 0; s < 4; s++ {
			for tg := uint64(0); tg < 6; tg++ {
				gw, gh := c.Lookup(s, tg)
				ww, wh := scan(s, tg)
				if gw != ww || gh != wh {
					t.Fatalf("step %d: Lookup(%d, %d) = (%d, %v), entry scan (%d, %v)", step, s, tg, gw, gh, ww, wh)
				}
			}
		}
	}
}

// TestResetEmptiesCache: Reset leaves the cache as New returned it.
func TestResetEmptiesCache(t *testing.T) {
	c := newTestCache(t)
	c.Install(2, 1, 99)
	c.Entry(3, 0).Disabled = true
	c.Reset()
	fresh := newTestCache(t)
	if _, hit := c.Lookup(2, 99); hit || c.DisabledLines() != 0 {
		t.Fatal("Reset left a line behind")
	}
	c.Install(1, 2, 7)
	fresh.Install(1, 2, 7)
	if *c.Entry(1, 2) != *fresh.Entry(1, 2) {
		t.Fatalf("after Reset, Install gives %+v, fresh cache %+v", *c.Entry(1, 2), *fresh.Entry(1, 2))
	}
}

// EnabledWays counts non-disabled ways in a set.
func (c *Cache) EnabledWays(set int) int {
	n := 0
	for _, e := range c.Set(set) {
		if !e.Disabled {
			n++
		}
	}
	return n
}
