package killi

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"killi/internal/bitvec"
	"killi/internal/faultmodel"
	"killi/internal/xrand"
)

// newWB builds a write-back cache whose line i carries faults[i].
func newWB(t *testing.T, sets, ways int, faults [][]faultmodel.Fault, v float64) *WriteBackCache {
	t.Helper()
	lines := sets * ways
	for len(faults) < lines {
		faults = append(faults, nil)
	}
	fm := faultmodel.NewMapExplicit(faultmodel.Default(), bitvec.LineBits, 1.0, faults)
	return NewWriteBack(WriteBackConfig{Sets: sets, Ways: ways, Ratio: 1}, fm, v)
}

func TestWriteBackBasicRoundTrip(t *testing.T) {
	c := newWB(t, 8, 2, nil, 0.625)
	r := xrand.New(1)
	want := map[uint64]bitvec.Line{}
	for i := 0; i < 100; i++ {
		addr := uint64(i) * 64
		l := randomLine(r)
		want[addr] = l
		if err := c.Write(addr, l); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	for addr, l := range want {
		got, err := c.Read(addr)
		if err != nil {
			t.Fatalf("read %#x: %v", addr, err)
		}
		if got != l {
			t.Fatalf("read %#x: wrong data", addr)
		}
	}
}

func TestWriteBackFlushPersists(t *testing.T) {
	c := newWB(t, 4, 2, nil, 0.625)
	r := xrand.New(2)
	l := randomLine(r)
	if err := c.Write(640, l); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if c.Stats().Get("wb.writebacks") == 0 {
		t.Fatal("no writebacks recorded")
	}
	if c.backing[10] != l {
		t.Fatal("backing store missing flushed data")
	}
}

func TestWriteBackSingleFaultDirtyLineSurvives(t *testing.T) {
	// Dirty data on a 1-fault line gets DECTED: the LV fault corrupts the
	// stored copy, and the read must still return the written value.
	faults := [][]faultmodel.Fault{{stuck(77, 1)}}
	c := newWB(t, 4, 1, faults, 0.625)
	r := xrand.New(3)

	// Train the line first with a read-path install whose data unmasks
	// the fault.
	seed := randomLine(r)
	seed.SetBit(77, 0)
	c.backing[0] = seed
	if _, err := c.Read(0); err != nil { // install (miss)
		t.Fatal(err)
	}
	if _, err := c.Read(0); err != nil { // hit → classify
		t.Fatal(err)
	}
	if c.dfhOf(0, 0) != Stable1 {
		t.Fatalf("DFH = %v, want b'10", c.dfhOf(0, 0))
	}

	// Now dirty the line; §5.6.1 upgrades it to DECTED.
	dirtyData := randomLine(r)
	dirtyData.SetBit(77, 0) // fault unmasked under the new data too
	if err := c.Write(0, dirtyData); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(0)
	if err != nil {
		t.Fatalf("read of dirty 1-fault line: %v", err)
	}
	if got != dirtyData {
		t.Fatal("dirty data corrupted")
	}
	if c.Stats().Get("wb.corrected_reads") == 0 {
		t.Fatal("no corrections recorded")
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if c.backing[0] != dirtyData {
		t.Fatal("flushed data wrong")
	}
}

func TestWriteBackDirtyDataLossSurfaces(t *testing.T) {
	// A dirty line accumulating more errors than its protection corrects
	// must report ErrDataLoss, not silent corruption. Use a clean-trained
	// Stable0 line (SECDED when dirty) and hit it with two soft errors.
	c := newWB(t, 4, 1, nil, 0.625)
	r := xrand.New(4)
	data := randomLine(r)
	c.backing[0] = data
	if _, err := c.Read(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(0); err != nil { // classify b'00
		t.Fatal(err)
	}
	if err := c.Write(0, data); err != nil { // dirty, SECDED protected
		t.Fatal(err)
	}
	id := c.tags.LineID(0, 0)
	c.data.InjectSoftError(id, 5)
	c.data.InjectSoftError(id, 300)
	_, err := c.Read(0)
	if !errors.Is(err, ErrDataLoss) {
		t.Fatalf("err = %v, want ErrDataLoss", err)
	}
	if c.Stats().Get("wb.data_loss") == 0 {
		t.Fatal("data loss not counted")
	}
}

func TestWriteBackCleanLineRefetches(t *testing.T) {
	// The same double-error on a CLEAN line is transparently refetched.
	c := newWB(t, 4, 1, nil, 0.625)
	r := xrand.New(5)
	data := randomLine(r)
	c.backing[0] = data
	if _, err := c.Read(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(0); err != nil { // classify b'00 (clean, parity only)
		t.Fatal(err)
	}
	id := c.tags.LineID(0, 0)
	c.data.InjectSoftError(id, 5)
	c.data.InjectSoftError(id, 6) // two different 128-bit fold segments
	got, err := c.Read(0)
	if err != nil {
		t.Fatalf("clean-line error: %v", err)
	}
	if got != data {
		t.Fatal("refetched data wrong")
	}
	// Table 2: a multi-bit error discovered after training disables the
	// line, as in the write-through design.
	if c.dfhOf(0, 0) != Disabled {
		t.Fatalf("DFH = %v, want b'11", c.dfhOf(0, 0))
	}
}

// TestWriteBackSharedRows drives end to end the write-back rows that now
// follow the shared classifier's write-through rows.
func TestWriteBackSharedRows(t *testing.T) {
	// trainedRead installs line 0 through a read miss, injects soft errors
	// at bits, and reads it back.
	trainedRead := func(c *WriteBackCache, data bitvec.Line, bits ...int) {
		t.Helper()
		c.backing[0] = data
		if _, err := c.Read(0); err != nil {
			t.Fatal(err)
		}
		for _, b := range bits {
			c.data.InjectSoftError(c.tags.LineID(0, 0), b)
		}
		if got, err := c.Read(0); err != nil || got != data {
			t.Fatalf("read: %v, data ok %v", err, got == data)
		}
	}
	t.Run("corrected transient trains b'00", func(t *testing.T) {
		fm := faultmodel.NewMapExplicit(faultmodel.Default(), bitvec.LineBits, 1.0, make([][]faultmodel.Fault, 4))
		c := NewWriteBack(WriteBackConfig{Sets: 4, Ways: 1, Ratio: 1}, fm, 0.625)
		trainedRead(c, randomLine(xrand.New(9)), 77)
		if c.dfhOf(0, 0) != Stable0 || c.ecc.occupancy() != 0 || c.Stats().Get("wb.corrected_reads") != 1 {
			t.Fatalf("DFH %v, ECC occupancy %d, corrected reads %d; want b'00, 0, 1",
				c.dfhOf(0, 0), c.ecc.occupancy(), c.Stats().Get("wb.corrected_reads"))
		}
	})
	t.Run("miscorrection caught and counted", func(t *testing.T) {
		c := newWB(t, 4, 1, [][]faultmodel.Fault{{stuck(0, 1), stuck(16, 1), stuck(5, 1)}}, 0.625)
		trainedRead(c, bitvec.Line{})
		if c.dfhOf(0, 0) != Disabled || c.Stats().Get("wb.miscorrection_caught") != 1 {
			t.Fatalf("DFH %v, miscorrections %d; want b'11, 1", c.dfhOf(0, 0), c.Stats().Get("wb.miscorrection_caught"))
		}
	})
	t.Run("b'10 line whose fault vanished trains b'00", func(t *testing.T) {
		// A cell stuck at 1 under zero data: one corrected error that the
		// polarity test confirms, so the line trains b'10.
		c := newWB(t, 4, 1, [][]faultmodel.Fault{{stuck(99, 1)}}, 0.625)
		trainedRead(c, bitvec.Line{})
		if c.dfhOf(0, 0) != Stable1 {
			t.Fatalf("setup: DFH %v, want b'10", c.dfhOf(0, 0))
		}
		// A clean refill of the same way whose data masks the fault: its
		// read hit sees a clean syndrome and a matching parity.
		var masked bitvec.Line
		masked.SetBit(99, 1)
		c.backing[4] = masked // line address 4 maps to set 0
		for range 2 {
			if got, err := c.Read(4 * 64); err != nil || got != masked {
				t.Fatalf("read: %v, data ok %v", err, got == masked)
			}
		}
		if c.dfhOf(0, 0) != Stable0 || c.ecc.occupancy() != 0 {
			t.Fatalf("DFH %v, ECC occupancy %d; want b'00, 0", c.dfhOf(0, 0), c.ecc.occupancy())
		}
	})
}

func TestWriteBackDirtyVictimWrittenBackOnEviction(t *testing.T) {
	// Fill a 1-way set twice: the dirty first line must land in backing.
	c := newWB(t, 2, 1, nil, 0.625)
	r := xrand.New(6)
	l1 := randomLine(r)
	if err := c.Write(0, l1); err != nil { // set 0
		t.Fatal(err)
	}
	l2 := randomLine(r)
	if err := c.Write(2*64, l2); err != nil { // same set, different tag
		t.Fatal(err)
	}
	if c.backing[0] != l1 {
		t.Fatal("dirty victim not written back")
	}
	got, err := c.Read(2 * 64)
	if err != nil || got != l2 {
		t.Fatal("resident line wrong after eviction")
	}
}

func TestWriteBackStable0DirtyGetsSECDED(t *testing.T) {
	// After classification, a dirty store on a b'00 line must allocate an
	// ECC entry (on-demand SECDED) and survive a single soft error.
	c := newWB(t, 4, 1, nil, 0.625)
	r := xrand.New(7)
	data := randomLine(r)
	c.backing[0] = data
	c.Read(0)
	c.Read(0) // b'00
	if c.dfhOf(0, 0) != Stable0 {
		t.Fatal("classification failed")
	}
	if err := c.Write(0, data); err != nil {
		t.Fatal(err)
	}
	if c.ecc.occupancy() != 1 {
		t.Fatalf("ECC occupancy = %d; dirty b'00 line must hold SECDED", c.ecc.occupancy())
	}
	id := c.tags.LineID(0, 0)
	c.data.InjectSoftError(id, 111)
	got, err := c.Read(0)
	if err != nil || got != data {
		t.Fatalf("dirty b'00 line not corrected: %v", err)
	}
}

func TestWriteBackTwoFaultLineDisabled(t *testing.T) {
	faults := [][]faultmodel.Fault{{stuck(0, 1), stuck(1, 1)}}
	c := newWB(t, 2, 1, faults, 0.625)
	var data bitvec.Line
	c.backing[0] = data
	c.Read(0)
	if _, err := c.Read(0); err != nil {
		t.Fatalf("clean-line classification read must refetch, got %v", err)
	}
	if c.dfhOf(0, 0) != Disabled {
		t.Fatalf("DFH = %v, want b'11", c.dfhOf(0, 0))
	}
}

func TestWriteBackECCContentionForcesWriteback(t *testing.T) {
	// A 4-entry ECC cache with many dirty Stable0 lines: allocating the
	// 5th protection entry must write the victim back (it cannot stay
	// dirty without checkbits).
	lines := 16
	fm := faultmodel.NewMapExplicit(faultmodel.Default(), bitvec.LineBits, 1.0, make([][]faultmodel.Fault, lines))
	c := NewWriteBack(WriteBackConfig{Sets: 16, Ways: 1, Ratio: 4, Assoc: 4}, fm, 0.625)
	r := xrand.New(8)
	for set := 0; set < 6; set++ {
		addr := uint64(set) * 64
		data := randomLine(r)
		c.backing[addr/64] = data
		c.Read(addr)
		c.Read(addr) // classify b'00
		if err := c.Write(addr, data); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats().Get("wb.ecc_contention_evictions") == 0 {
		t.Fatal("no ECC contention with 6 dirty lines and 4 entries")
	}
	if c.Stats().Get("wb.writebacks") == 0 {
		t.Fatal("contention victim not written back")
	}
	// No data may be lost: flush and verify all six lines via backing.
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

// TestWriteBackRetiredLineSavedOnce pins that a dirty line the polarity
// test retires on its way out is saved exactly once. The line holds two
// stuck cells its data masks, so it stays b'01 and dirty until it leaves;
// the departing check then finds more stuck cells than SECDED corrects,
// disables the line and saves its data (save-and-deliver). The eviction
// that triggered the check must not save and count it a second time.
func TestWriteBackRetiredLineSavedOnce(t *testing.T) {
	for _, tc := range []struct {
		name  string
		leave func(c *WriteBackCache) error
	}{
		// One ECC entry for two lines: protecting line 1 evicts line 0's.
		{"ECC contention victim", func(c *WriteBackCache) error { return c.Write(64, randomLine(xrand.New(3))) }},
		{"flush", func(c *WriteBackCache) error { return c.Flush() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fm := faultmodel.NewMapExplicit(faultmodel.Default(), bitvec.LineBits, 1.0,
				[][]faultmodel.Fault{{stuck(3, 0), stuck(200, 0)}, nil})
			c := NewWriteBack(WriteBackConfig{Sets: 2, Ways: 1, Ratio: 2, Assoc: 1}, fm, 0.625)
			data := randomLine(xrand.New(4))
			data.SetBit(3, 0)
			data.SetBit(200, 0)
			if err := c.Write(0, data); err != nil {
				t.Fatal(err)
			}
			if c.dfhOf(0, 0) != Initial {
				t.Fatalf("setup: DFH %v, want b'01", c.dfhOf(0, 0))
			}
			if err := tc.leave(c); err != nil {
				t.Fatal(err)
			}
			if c.dfhOf(0, 0) != Disabled || c.backing[0] != data {
				t.Fatalf("DFH %v, data saved %v; want b'11, true", c.dfhOf(0, 0), c.backing[0] == data)
			}
			if got := c.Stats().Get("wb.writebacks"); got != 1 {
				t.Fatalf("wb.writebacks = %d, want 1", got)
			}
		})
	}
}

func TestWriteBackInvertedTrainingNoSilentCorruption(t *testing.T) {
	// End-to-end §5.6.1+§5.6.2: at an aggressive voltage, every read of a
	// written line either returns exactly the written data or an explicit
	// error — never silent corruption — when inverted training is on.
	const sets, ways = 128, 4
	fm := faultmodel.NewMap(xrand.New(21), faultmodel.Default(),
		sets*ways, bitvec.LineBits, 0.575, 1.0)
	c := NewWriteBack(WriteBackConfig{
		Sets: sets, Ways: ways, Ratio: 8,
	}, fm, 0.575)

	r := xrand.New(22)
	written := map[uint64]bitvec.Line{}
	for i := 0; i < 3000; i++ {
		addr := uint64(r.Intn(1024)) * 64
		if r.Intn(3) == 0 || written[addr] == (bitvec.Line{}) {
			l := randomLine(r)
			if err := c.Write(addr, l); err != nil {
				t.Fatalf("write: %v", err)
			}
			written[addr] = l
			continue
		}
		got, err := c.Read(addr)
		if err != nil {
			continue // explicit data loss is allowed, silence is not
		}
		if got != written[addr] {
			t.Fatalf("silent corruption at %#x after %d ops", addr, i)
		}
	}
	if err := c.Flush(); err == nil {
		// Verify everything through the backing store after a clean flush.
		for addr, want := range written {
			got, err := c.Read(addr)
			if err != nil {
				continue
			}
			if got != want {
				t.Fatalf("silent corruption at %#x after flush", addr)
			}
		}
	}
}

// TestWriteBackCounterDigest pins every wb.* counter, DFH transitions
// included, after the examples/writeback workload (map seed 11, op seed 12,
// 256×4 lines, a 1:16 ECC cache at 0.575×VDD): the write-back adapter's
// share of the DFH classifier.
// The subtest keeps the name the polarity-test run had while the
// polarity test was optional.
func TestWriteBackCounterDigest(t *testing.T) {
	t.Run("inverted=true", func(t *testing.T) {
		const want = 0xa8af2834fedea510
		const sets, ways = 256, 4
		fm := faultmodel.NewMap(xrand.New(11), faultmodel.Default(),
			sets*ways, bitvec.LineBits, 0.575, 1.0)
		c := NewWriteBack(WriteBackConfig{Sets: sets, Ways: ways, Ratio: 16}, fm, 0.575)
		r := xrand.New(12)
		written := map[uint64]bitvec.Line{}
		for i := 0; i < 4096; i++ {
			addr := uint64(r.Intn(2048)) * 64
			var l bitvec.Line
			for w := range l {
				l[w] = r.Uint64()
			}
			if err := c.Write(addr, l); err == nil {
				written[addr] = l
			}
		}
		addrs := make([]uint64, 0, len(written))
		for addr := range written {
			addrs = append(addrs, addr)
		}
		slices.Sort(addrs)
		verified, lost, silent := 0, 0, 0
		for _, addr := range addrs {
			switch got, err := c.Read(addr); {
			case err != nil:
				lost++
			case got != written[addr]:
				silent++
			default:
				verified++
			}
		}
		flushErr := c.Flush()
		h := fnv.New64a()
		fmt.Fprintf(h, "verified=%d lost=%d silent=%d flush=%v\n", verified, lost, silent, flushErr)
		for _, n := range c.Stats().Names() {
			fmt.Fprintf(h, "%s=%d\n", n, c.Stats().Get(n))
		}
		if got := h.Sum64(); got != want {
			t.Logf("verified=%d lost=%d silent=%d flush=%v", verified, lost, silent, flushErr)
			for _, n := range c.Stats().Names() {
				t.Logf("%s=%d", n, c.Stats().Get(n))
			}
			t.Fatalf("write-back digest = %#x, want %#x", got, uint64(want))
		}
	})
}

// dfhOf returns the DFH state at (set, way).
func (c *WriteBackCache) dfhOf(set, way int) DFH {
	return DFH(c.tags.Entry(set, way).Class)
}
