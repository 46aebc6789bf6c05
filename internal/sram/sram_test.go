package sram

import (
	"reflect"
	"testing"

	"killi/internal/bitvec"
	"killi/internal/faultmodel"
	"killi/internal/xrand"
)

func newTestArray(t *testing.T, seed uint64, lines int, v float64) *Array {
	t.Helper()
	fm := faultmodel.NewMap(xrand.New(seed), faultmodel.Default(), lines, bitvec.LineBits, 0.5, 1.0)
	return New(lines, fm, v)
}

func randomLine(r *xrand.Rand) bitvec.Line {
	var l bitvec.Line
	for w := range l {
		l[w] = r.Uint64()
	}
	return l
}

func TestFaultFreeRoundTrip(t *testing.T) {
	a := newTestArray(t, 1, 100, 1.0) // nominal voltage: no active faults
	r := xrand.New(2)
	for i := 0; i < a.Lines(); i++ {
		l := randomLine(r)
		a.Write(i, l)
		if got := a.Read(i); got != l {
			t.Fatalf("line %d: read != write at nominal voltage", i)
		}
	}
}

func TestStuckAtCorruption(t *testing.T) {
	a := newTestArray(t, 3, 2000, 0.55)
	r := xrand.New(4)
	sawCorruption := false
	for i := 0; i < a.Lines(); i++ {
		l := randomLine(r)
		a.Write(i, l)
		got := a.Read(i)
		diff := got.DiffBits(l)
		if len(diff) != a.UnmaskedFaultCount(i) {
			t.Fatalf("line %d: %d corrupted bits, %d unmasked faults", i, len(diff), a.UnmaskedFaultCount(i))
		}
		if len(diff) > a.ActiveFaultCount(i) {
			t.Fatalf("line %d: more corrupted bits than active faults", i)
		}
		if len(diff) > 0 {
			sawCorruption = true
		}
	}
	if !sawCorruption {
		t.Fatal("no corruption at 0.55×VDD across 2000 lines; fault injection broken")
	}
}

func TestFaultPersistence(t *testing.T) {
	// The same cells must corrupt on every read: two reads of the same
	// data agree, and rewriting identical data reproduces corruption.
	a := newTestArray(t, 5, 500, 0.55)
	r := xrand.New(6)
	for i := 0; i < a.Lines(); i++ {
		l := randomLine(r)
		a.Write(i, l)
		first := a.Read(i)
		second := a.Read(i)
		if first != second {
			t.Fatalf("line %d: reads not deterministic", i)
		}
		a.Write(i, l)
		if a.Read(i) != first {
			t.Fatalf("line %d: rewrite changed fault behaviour", i)
		}
	}
}

func TestMaskedFaultUnmasksOnDataChange(t *testing.T) {
	// Find a line with at least one active fault; write data matching the
	// stuck value (masked), then invert it (unmasked).
	a := newTestArray(t, 7, 5000, 0.55)
	found := false
	for i := 0; i < a.Lines() && !found; i++ {
		if a.ActiveFaultCount(i) == 0 {
			continue
		}
		found = true
		f := a.active.LineFaults(a.mapIndex(i))[0]
		var l bitvec.Line
		l.SetBit(f.Bit, f.StuckAt) // masked
		a.Write(i, l)
		if a.Read(i).Bit(f.Bit) != f.StuckAt {
			t.Fatal("masked fault corrupted matching data")
		}
		if a.UnmaskedFaultCount(i) > a.ActiveFaultCount(i)-1+1 {
			t.Fatal("unmasked accounting wrong")
		}
		l.SetBit(f.Bit, f.StuckAt^1) // unmasked
		a.Write(i, l)
		if a.Read(i).Bit(f.Bit) != f.StuckAt {
			t.Fatal("stuck-at cell returned written value")
		}
	}
	if !found {
		t.Fatal("no faulty line found at 0.55×VDD")
	}
}

func TestVoltageRaiseDeactivatesFaults(t *testing.T) {
	a := newTestArray(t, 8, 3000, 0.55)
	lowCounts := make([]int, a.Lines())
	for i := range lowCounts {
		lowCounts[i] = a.ActiveFaultCount(i)
	}
	a.SetVoltage(0.9)
	for i := 0; i < a.Lines(); i++ {
		if a.ActiveFaultCount(i) > lowCounts[i] {
			t.Fatalf("line %d gained faults when voltage rose", i)
		}
	}
	// At 0.9×VDD essentially everything is fault-free.
	faulty := 0
	for i := 0; i < a.Lines(); i++ {
		if a.ActiveFaultCount(i) > 0 {
			faulty++
		}
	}
	if faulty > 1 {
		t.Fatalf("%d faulty lines at 0.9×VDD", faulty)
	}
}

func TestVoltageChangePreservesData(t *testing.T) {
	a := newTestArray(t, 9, 100, 0.55)
	r := xrand.New(10)
	want := make([]bitvec.Line, a.Lines())
	for i := range want {
		want[i] = randomLine(r)
		a.Write(i, want[i])
	}
	a.SetVoltage(1.0)
	for i := range want {
		if a.Read(i) != want[i] {
			t.Fatalf("line %d: data lost across voltage change", i)
		}
	}
}

func TestSoftErrorTransient(t *testing.T) {
	a := newTestArray(t, 11, 10, 1.0)
	var l bitvec.Line
	a.Write(0, l)
	a.InjectSoftError(0, 37)
	if a.Read(0).Bit(37) != 1 {
		t.Fatal("soft error not visible")
	}
	a.Write(0, l) // rewrite clears the transient
	if a.Read(0).Bit(37) != 0 {
		t.Fatal("soft error survived a write")
	}
}

func TestSoftErrorOnStuckCellInvisible(t *testing.T) {
	// A soft error landing on a stuck-at cell does not change what reads
	// back — the stuck value dominates.
	a := newTestArray(t, 12, 5000, 0.55)
	for i := 0; i < a.Lines(); i++ {
		if a.ActiveFaultCount(i) == 0 {
			continue
		}
		f := a.active.LineFaults(a.mapIndex(i))[0]
		var l bitvec.Line
		a.Write(i, l)
		before := a.Read(i).Bit(f.Bit)
		a.InjectSoftError(i, f.Bit)
		if a.Read(i).Bit(f.Bit) != before {
			t.Fatal("stuck cell's read value changed after soft error")
		}
		return
	}
	t.Fatal("no faulty line found")
}

func TestReadTrueBypassesFaults(t *testing.T) {
	a := newTestArray(t, 13, 2000, 0.5)
	r := xrand.New(14)
	for i := 0; i < a.Lines(); i++ {
		l := randomLine(r)
		a.Write(i, l)
		if a.ReadTrue(i) != l {
			t.Fatalf("line %d: ReadTrue altered data", i)
		}
	}
}

// flipAt returns l with the given bits inverted.
func flipAt(l bitvec.Line, bits ...int) bitvec.Line {
	for _, b := range bits {
		l.FlipBit(b)
	}
	return l
}

// overlayLen counts the lines holding soft flips, checking the map and the
// per-line bitmap agree.
func overlayLen(t *testing.T, a *Array) int {
	t.Helper()
	marked := 0
	for _, w := range a.flipped {
		for ; w != 0; w &= w - 1 {
			marked++
		}
	}
	if marked != len(a.flips) {
		t.Fatalf("flip bitmap marks %d lines, overlay holds %d", marked, len(a.flips))
	}
	return marked
}

func TestSoftErrorShowsInReadNotReadTrue(t *testing.T) {
	a := newTestArray(t, 21, 100, 1.0)
	l := randomLine(xrand.New(22))
	a.Write(7, l)
	a.InjectSoftError(7, 3)
	a.InjectSoftError(7, 300)
	if got := a.Read(7); got != flipAt(l, 3, 300) {
		t.Fatal("Read does not show the soft flips")
	}
	if a.ReadTrue(7) != l {
		t.Fatal("ReadTrue shows a soft flip; it must return the last write")
	}
	// A second strike on the same cell flips it back; once every flip has
	// cancelled the line holds no overlay entry at all.
	a.InjectSoftError(7, 3)
	if got := a.Read(7); got != flipAt(l, 300) {
		t.Fatal("a repeated flip did not cancel")
	}
	a.InjectSoftError(7, 300)
	if a.Read(7) != l || overlayLen(t, a) != 0 {
		t.Fatal("cancelled flips left an overlay entry")
	}
}

func TestWriteErasesSoftErrors(t *testing.T) {
	a := newTestArray(t, 23, 100, 1.0)
	r := xrand.New(24)
	old, next := randomLine(r), randomLine(r)
	a.Write(1, old)
	a.Write(2, old)
	a.InjectSoftError(1, 9)
	a.InjectSoftError(2, 9)
	a.Write(1, next)
	if a.Read(1) != next || a.ReadTrue(1) != next {
		t.Fatal("a soft flip survived a write")
	}
	if a.Read(2) != flipAt(old, 9) || overlayLen(t, a) != 1 {
		t.Fatal("writing one line disturbed another line's flip")
	}
}

func TestUnmaskedFaultCountSeesSoftErrors(t *testing.T) {
	// A soft flip on a stuck-at cell changes what the cell stores, so it
	// unmasks (or masks) that fault, though the read value stays stuck.
	a := newTestArray(t, 25, 5000, 0.55)
	for i := 0; i < a.Lines(); i++ {
		if a.ActiveFaultCount(i) == 0 {
			continue
		}
		f := a.active.LineFaults(a.mapIndex(i))[0]
		var l bitvec.Line
		l.SetBit(f.Bit, f.StuckAt) // the stored value masks the fault
		a.Write(i, l)
		before, read := a.UnmaskedFaultCount(i), a.Read(i)
		a.InjectSoftError(i, f.Bit)
		if got := a.UnmaskedFaultCount(i); got != before+1 {
			t.Fatalf("unmasked faults %d after flipping a masked stuck cell, want %d", got, before+1)
		}
		if a.Read(i) != read {
			t.Fatal("a soft flip on a stuck cell changed the read value")
		}
		return
	}
	t.Fatal("no faulty line found")
}

func TestWritePatternKeepsGroundTruth(t *testing.T) {
	a := newTestArray(t, 26, 100, 1.0)
	r := xrand.New(27)
	truth, pattern := randomLine(r), randomLine(r)
	a.Write(4, truth)
	a.writePattern(4, pattern)
	if a.Read(4) != pattern || a.ReadTrue(4) != truth {
		t.Fatal("WritePattern must change the cells but not the ground truth")
	}
	a.InjectSoftError(4, 11)
	if a.Read(4) != flipAt(pattern, 11) || a.ReadTrue(4) != truth {
		t.Fatal("a soft flip over a pattern is not applied to the pattern")
	}
	a.writePattern(4, truth)
	if a.Read(4) != truth || overlayLen(t, a) != 0 {
		t.Fatal("restoring the truth left an overlay entry")
	}
	a.writePattern(4, pattern)
	a.Write(4, invert(truth))
	if a.Read(4) != invert(truth) || a.ReadTrue(4) != invert(truth) || overlayLen(t, a) != 0 {
		t.Fatal("Write did not replace both the pattern and the ground truth")
	}
}

func TestNewPanics(t *testing.T) {
	fm := faultmodel.NewMap(xrand.New(1), faultmodel.Default(), 10, bitvec.LineBits, 0.6, 1.0)
	defer func() {
		if recover() == nil {
			t.Fatal("undersized fault map did not panic")
		}
	}()
	New(11, fm, 0.6)
}

func TestNewPanicsWrongWidth(t *testing.T) {
	fm := faultmodel.NewMap(xrand.New(1), faultmodel.Default(), 10, 256, 0.6, 1.0)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-width fault map did not panic")
		}
	}()
	New(10, fm, 0.6)
}

func BenchmarkReadFaulty(b *testing.B) {
	fm := faultmodel.NewMap(xrand.New(1), faultmodel.Default(), 1024, bitvec.LineBits, 0.575, 1.0)
	a := New(1024, fm, 0.575)
	l := randomLine(xrand.New(2))
	for i := 0; i < a.Lines(); i++ {
		a.Write(i, l)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = a.Read(i & 1023)
	}
}

func TestInjectedPersistentFaultSurvivesVoltageChange(t *testing.T) {
	a := newTestArray(t, 20, 10, 1.0)
	var l bitvec.Line
	a.Write(0, l)
	a.InjectPersistentFault(0, 33, 1)
	if a.Read(0).Bit(33) != 1 {
		t.Fatal("aging fault not visible")
	}
	// Unlike a soft error, a rewrite does not clear it.
	a.Write(0, l)
	if a.Read(0).Bit(33) != 1 {
		t.Fatal("aging fault vanished after rewrite")
	}
	// And unlike an LV fault, a voltage change does not deactivate it.
	a.SetVoltage(0.6)
	if a.Read(0).Bit(33) != 1 {
		t.Fatal("aging fault vanished after voltage change")
	}
	a.SetVoltage(1.0)
	if a.ActiveFaultCount(0) < 1 {
		t.Fatal("aging fault missing from active count")
	}
}

// TestResolvedViewMatchesMonolithic checks the strided bank view: an array
// holding every stride-th group of ways lines must read exactly what the
// monolithic array reads at the corresponding global lines — same faults,
// same masking — at every voltage tried.
func TestResolvedViewMatchesMonolithic(t *testing.T) {
	const (
		ways   = 4
		stride = 8
		groups = 16 // global groups; each view holds groups/stride of them
		lines  = ways * groups
	)
	fm := faultmodel.NewMap(xrand.New(9), faultmodel.Default(), lines, bitvec.LineBits, 0.5, 1.0)
	for _, v := range []float64{0.55, 0.70, 1.0} {
		resolved := fm.Resolve(v)
		whole := newResolved(lines, fm, resolved)
		r := xrand.New(11)
		payload := make([]bitvec.Line, lines)
		for i := range payload {
			payload[i] = randomLine(r)
			whole.Write(i, payload[i])
		}
		for offset := 0; offset < stride; offset++ {
			local := lines / stride
			view := NewResolvedView(local, fm, resolved, ways, stride, offset)
			for i := 0; i < local; i++ {
				g := ((i/ways)*stride+offset)*ways + i%ways
				view.Write(i, payload[g])
				if got, want := view.Read(i), whole.Read(g); got != want {
					t.Fatalf("v=%.2f offset=%d: view line %d != whole line %d", v, offset, i, g)
				}
				if got, want := view.ActiveFaultCount(i), whole.ActiveFaultCount(g); got != want {
					t.Fatalf("v=%.2f offset=%d line %d: fault count %d, want %d", v, offset, i, got, want)
				}
				if got, want := view.UnmaskedFaultCount(i), whole.UnmaskedFaultCount(g); got != want {
					t.Fatalf("v=%.2f offset=%d line %d: unmasked %d, want %d", v, offset, i, got, want)
				}
			}
		}
	}
}

func TestResolvedViewRejectsShortMap(t *testing.T) {
	fm := faultmodel.NewMap(xrand.New(1), faultmodel.Default(), 16, bitvec.LineBits, 0.5, 1.0)
	defer func() {
		if recover() == nil {
			t.Fatal("view needing lines beyond the map should panic")
		}
	}()
	// offset 3 of stride 4 with 8 local lines of 4 ways needs map line
	// ((8/4-1)*4+3+1)*4 = 32 > 16.
	NewResolvedView(8, fm, fm.Resolve(0.6), 4, 4, 3)
}

// TestResetMatchesNewView: an array that was written, soft-flipped,
// pattern-tested, given injected and classed faults and moved to another
// voltage is, after Reset over a new population, the array
// NewResolvedView builds over it — and reads back identically.
func TestResetMatchesNewView(t *testing.T) {
	const total, ways, banks = 256, 4, 4
	old := faultmodel.NewMap(xrand.New(1), faultmodel.Default(), total, bitvec.LineBits, 0.5, 1.0)
	a := NewResolvedView(total/banks, old, old.Resolve(0.55), ways, banks, 1)
	r := xrand.New(2)
	for i := 0; i < a.Lines(); i++ {
		a.Write(i, randomLine(r))
		a.InjectSoftError(i, r.Intn(bitvec.LineBits))
	}
	a.writePattern(3, randomLine(r))
	a.InjectPersistentFault(5, 17, 1)
	spec, err := faultmodel.ParseClassSpec("mixed:i=0.5@0.3")
	if err != nil {
		t.Fatal(err)
	}
	a.SetFaultClasses(spec, 9)
	a.SetFaultEpoch(12)
	a.SetVoltage(0.6)

	fm := faultmodel.NewMap(xrand.New(3), faultmodel.Default(), total, bitvec.LineBits, 0.5, 1.0)
	res := fm.Resolve(0.55)
	a.Reset(fm, res)
	want := NewResolvedView(total/banks, fm, res, ways, banks, 1)
	if !reflect.DeepEqual(a, want) {
		t.Fatalf("reset array %+v\nnew view    %+v", *a, *want)
	}
	for i := 0; i < a.Lines(); i++ {
		l := randomLine(r)
		a.Write(i, l)
		want.Write(i, l)
		if a.Read(i) != want.Read(i) || a.StuckCells(i, l) != want.StuckCells(i, l) {
			t.Fatalf("line %d reads differently after Reset", i)
		}
	}
}
