package gpu

import (
	"testing"

	"killi/internal/protection"
	"killi/internal/workload"
)

// streamTraces builds a pure streaming read-then-write trace: every request
// pair touches a line address never seen before, starting at startLine.
// This is the worst case for the version map — every store creates an
// entry, and no line is ever revisited.
func streamTraces(cus, pairs int, startLine uint64) ([][]workload.Request, uint64) {
	traces := make([][]workload.Request, cus)
	next := startLine
	for cu := 0; cu < cus; cu++ {
		tr := make([]workload.Request, 0, 2*pairs)
		for i := 0; i < pairs; i++ {
			addr := next * 64
			next++
			tr = append(tr,
				workload.Request{Addr: addr, Instrs: 4},
				workload.Request{Addr: addr, Write: true, Instrs: 4})
		}
		traces[cu] = tr
	}
	return traces, next
}

// liveLineStateEntries sums the live line-state entries over all banks.
func liveLineStateEntries(sys *System) int {
	n := 0
	for _, b := range sys.banks {
		n += b.lineState.live
	}
	return n
}

// TestVersionsMapBounded runs a streaming write workload over fresh
// addresses across many Run calls and checks the per-bank line-state
// tables stay bounded: entries for lines no longer observable through any
// cache level are pruned once a bank's table crosses its high-water mark,
// instead of growing with the total footprint forever.
func TestVersionsMapBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CUs = 2
	cfg.L1Bytes = 4 << 10
	cfg.L2Bytes = 64 << 10 // 1024 lines -> summed high water at 4096 entries
	cfg.L2Banks = 4
	sys := New(cfg, fac(protection.NewNone))

	// Pending increments do not trigger a prune themselves, so between
	// prunes the tables can overshoot their summed high-water mark by at
	// most the in-flight read window.
	highWater := 0
	for _, b := range sys.banks {
		highWater += b.versionsHighWater
	}
	bound := highWater + cfg.CUs*cfg.WindowPerCU

	totalLines := uint64(0)
	next := uint64(1)
	for run := 0; run < 8; run++ {
		var traces [][]workload.Request
		traces, next = streamTraces(cfg.CUs, 1000, next)
		sys.Run(traces)
		totalLines += uint64(cfg.CUs) * 1000
		// A fill decrements counts to zero in place (dead entries are
		// swept in bulk at the high-water mark, not removed one by one);
		// after a drain there must be no positive count left.
		for _, b := range sys.banks {
			for i, k := range b.lineState.keys {
				if k == 0 {
					continue
				}
				if n := packedPending(b.lineState.vals[i]); n > 0 {
					t.Fatalf("run %d: bank %d line %#x has %d pending reads after drain",
						run, b.bank, k-1, n)
				}
			}
		}
		if live := liveLineStateEntries(sys); live > bound {
			t.Fatalf("run %d: line-state tables grew to %d entries (summed high water %d)",
				run, live, highWater)
		}
	}
	if totalLines <= uint64(highWater) {
		t.Fatalf("test footprint %d lines does not exceed the high-water mark %d",
			totalLines, highWater)
	}
	// Between prunes a table may grow back up to its high-water mark plus
	// the entries added before the next prune fires; the total must not
	// track the full 16000-line footprint.
	if live := liveLineStateEntries(sys); live > bound {
		t.Fatalf("line-state tables grew to %d entries (summed high water %d, footprint %d lines)",
			live, highWater, totalLines)
	}
	sys.mergeCounters()
	if sys.ctr.Get("l2.version_prunes") == 0 {
		t.Fatal("pruning never triggered despite footprint above high water")
	}
}

// TestUnobservableStoreSkipsVersionEntry checks that a store to a line
// absent from every cache level (and with no read in flight) does not
// record a version bump.
func TestUnobservableStoreSkipsVersionEntry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CUs = 1
	sys := New(cfg, fac(protection.NewNone))
	lineStateOf := func(addr uint64) uint64 {
		bank, _, _ := sys.split(addr)
		return sys.banks[bank].lineState.get(addr >> sys.lineShift)
	}
	traces := [][]workload.Request{{
		{Addr: 0x1000, Write: true, Instrs: 4}, // blind store, nothing resident
	}}
	sys.Run(traces)
	if v := packedVersion(lineStateOf(0x1000)); v != 0 {
		t.Fatalf("blind store recorded version %d, want 0", v)
	}

	// A read followed by a store to the same line must record the version:
	// the line is resident (or in flight) when the store lands.
	traces = [][]workload.Request{{
		{Addr: 0x2000, Instrs: 4},
		{Addr: 0x2000, Write: true, Instrs: 4},
	}}
	sys.Run(traces)
	if v := packedVersion(lineStateOf(0x2000)); v != 1 {
		t.Fatalf("observable store recorded version %d, want 1", v)
	}
}

// TestRandomValidWayWideAssoc verifies the victim candidate buffer scales
// with the configured associativity: with 128 ways and every way valid,
// victimWay's random pick must be able to return ways above the old
// 64-entry cap.
func TestRandomValidWayWideAssoc(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L2Bytes = 128 * 64 * 4 // 4 global sets of 128 ways
	cfg.L2Ways = 128
	cfg.L2Banks = 2
	sys := New(cfg, fac(protection.NewNone))
	b := sys.banks[0]
	for way := 0; way < cfg.L2Ways; way++ {
		b.tags.Install(0, way, uint64(way))
	}
	seen := make(map[int]bool)
	for i := 0; i < 4096; i++ {
		seen[b.victimWay(0)] = true
	}
	high := 0
	for w := range seen {
		if w > high {
			high = w
		}
	}
	if high < 64 {
		t.Fatalf("no way above 63 ever selected in 4096 draws (max %d): candidate buffer capped", high)
	}
	if len(seen) < cfg.L2Ways/2 {
		t.Fatalf("only %d of %d ways ever selected", len(seen), cfg.L2Ways)
	}
}
