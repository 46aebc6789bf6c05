// Package sram models a bit-level SRAM data array operating under low
// voltage.
//
// The array stores true (intended) line payloads and applies its sampled
// stuck-at fault population when a line is read, so:
//
//   - masked faults arise naturally: a stuck-at-v cell holding data bit v
//     corrupts nothing until the data changes (§5.6.2 of the paper);
//   - faults are persistent by default: the same cells corrupt every access
//     at a given voltage (§3);
//   - raising the voltage deactivates the higher-severity faults
//     (monotonicity), which is how Killi reclaims disabled lines.
//
// SetFaultClasses layers the faultmodel taxonomy on top: with a non-zero
// ClassSpec, each sampled fault's class (persistent / intermittent / aging)
// decides whether it manifests on a given access, evaluated from a
// deterministic per-(seed, line, cell, epoch) hash against the array's
// current fault epoch (SetFaultEpoch, driven by the simulator clock). The
// zero-spec path is byte-identical to the legacy persistent model.
//
// Soft errors (transient bit flips) live in a sparse per-line XOR overlay
// on top of the stored payload: Read sees the flipped cells, ReadTrue the
// last written payload, and the next Write erases them — unlike LV faults.
// Transient fault-class strikes use the same mechanism, and so do the test
// patterns a scheme's built-in self-test writes (writePattern), so the
// array alone is the simulator's ground truth for silent data corruption.
//
// Per the paper's dual-rail design (§2.4), the tag array runs at nominal
// voltage, so only the data array modeled here experiences LV faults.
package sram

import (
	"fmt"

	"killi/internal/bitvec"
	"killi/internal/faultmodel"
)

// Array is a low-voltage SRAM data array of fixed-size 64-byte lines.
// Construct with New or NewResolvedView.
type Array struct {
	// lines holds each line's last Write: the ground-truth payload.
	lines []bitvec.Line
	// flips is the sparse XOR overlay of cells that differ from lines —
	// soft errors and self-test patterns — keyed by line; flipped marks
	// its lines one bit each, so a read tests a bit instead of probing the
	// map. Both stay nil until the first flip.
	flips   map[int]bitvec.Line
	flipped []uint64
	faults  *faultmodel.Map
	// active is the voltage-pre-resolved view of the fault map: per-line
	// active fault sets in one packed buffer, possibly shared read-only
	// with other Arrays built over the same map (NewResolvedView). Rebuilt on
	// SetVoltage; never mutated.
	active *faultmodel.Resolved
	// mapWays/mapStride/mapOffset describe a strided view into the fault
	// map for arrays that hold every mapStride-th group of mapWays lines
	// (an address-interleaved cache bank over a whole-cache fault map).
	// Local line i looks up global map line
	// ((i/ways)*stride + offset)*ways + i%ways; payloads stay local.
	// newResolved sets the identity view (stride 1, offset 0).
	mapWays   int
	mapStride int
	mapOffset int
	// classed fault evaluation (SetFaultClasses): with classed set, Read
	// consults each sampled fault's class and, for intermittent/aging
	// faults, a deterministic per-(seed, line, cell, epoch) activation
	// hash against faultEpoch (SetFaultEpoch). classed is false for the
	// legacy pure-persistent model, keeping that path branch-predictable.
	classed    bool
	spec       faultmodel.ClassSpec
	classSeed  uint64
	faultEpoch uint64
}

// mapIndex translates a local line index to its fault-map line.
func (a *Array) mapIndex(i int) int {
	if a.mapStride == 1 && a.mapOffset == 0 {
		return i
	}
	return ((i/a.mapWays)*a.mapStride+a.mapOffset)*a.mapWays + i%a.mapWays
}

// runIndex returns the fault-map line of local line first, for a run of n
// local lines that maps onto n consecutive map lines: any run of an
// identity view, or a run within one group of mapWays lines (one cache set
// of a bank view). It panics on a run that crosses a group of a strided
// view.
func (a *Array) runIndex(first, n int) int {
	if a.mapStride == 1 && a.mapOffset == 0 {
		return first
	}
	if first%a.mapWays+n > a.mapWays {
		panic(fmt.Sprintf("sram: run of %d lines at %d crosses a %d-line map group", n, first, a.mapWays))
	}
	return a.mapIndex(first)
}

// New returns an array of n lines using the given persistent fault map,
// initially operating at voltage vNorm. The fault map must cover at least n
// lines of 512 bits.
func New(n int, faults *faultmodel.Map, vNorm float64) *Array {
	return newResolved(n, faults, faults.Resolve(vNorm))
}

// newResolved returns an array of n lines over a fault map whose active
// set was already resolved at the operating voltage — the resolved view is
// shared read-only, so building many arrays over one map (a scheme sweep)
// resolves the map once instead of once per array. The view must come from
// the same map.
func newResolved(n int, faults *faultmodel.Map, resolved *faultmodel.Resolved) *Array {
	if faults.Lines() < n {
		panic(fmt.Sprintf("sram: fault map covers %d lines, need %d", faults.Lines(), n))
	}
	if faults.BitsPerLine() != bitvec.LineBits {
		panic("sram: fault map is not 512 bits per line")
	}
	if resolved.Lines() < n {
		panic(fmt.Sprintf("sram: resolved view covers %d lines, need %d", resolved.Lines(), n))
	}
	return &Array{
		lines:     make([]bitvec.Line, n),
		faults:    faults,
		active:    resolved,
		mapWays:   1,
		mapStride: 1,
	}
}

// NewResolvedView returns an n-line array that maps its lines onto a
// strided slice of a larger shared fault map: local lines are consumed in
// groups of ways, and group g (a cache set) corresponds to map group
// g*stride + offset. This is how an address-interleaved L2 bank — which
// owns every stride-th set of the cache — keeps the per-line fault
// population of the whole-cache map without copying or re-deriving it, so
// a sharded simulation sees bit-identical faults to a monolithic one.
func NewResolvedView(n int, faults *faultmodel.Map, resolved *faultmodel.Resolved, ways, stride, offset int) *Array {
	a := view(make([]bitvec.Line, n), faults, resolved, ways, stride, offset)
	return &a
}

// Reset returns the array to the state NewResolvedView left it in, over a
// new fault population and with the same view geometry: payloads zeroed;
// the flip overlay, fault classes and fault epoch dropped. The payload
// buffer is kept, so a recycled array allocates nothing.
func (a *Array) Reset(faults *faultmodel.Map, resolved *faultmodel.Resolved) {
	clear(a.lines)
	*a = view(a.lines, faults, resolved, a.mapWays, a.mapStride, a.mapOffset)
}

// view validates a strided view geometry against the fault population and
// returns a fresh array over the given (zeroed) payload buffer.
func view(lines []bitvec.Line, faults *faultmodel.Map, resolved *faultmodel.Resolved, ways, stride, offset int) Array {
	n := len(lines)
	if ways < 1 || stride < 1 || offset < 0 || offset >= stride {
		panic(fmt.Sprintf("sram: bad view geometry ways=%d stride=%d offset=%d", ways, stride, offset))
	}
	if n%ways != 0 {
		panic(fmt.Sprintf("sram: %d lines not a multiple of %d ways", n, ways))
	}
	need := ((n/ways-1)*stride + offset + 1) * ways
	if faults.Lines() < need {
		panic(fmt.Sprintf("sram: fault map covers %d lines, view needs %d", faults.Lines(), need))
	}
	if faults.BitsPerLine() != bitvec.LineBits {
		panic("sram: fault map is not 512 bits per line")
	}
	if resolved.Lines() < need {
		panic(fmt.Sprintf("sram: resolved view covers %d lines, view needs %d", resolved.Lines(), need))
	}
	return Array{
		lines:     lines,
		faults:    faults,
		active:    resolved,
		mapWays:   ways,
		mapStride: stride,
		mapOffset: offset,
	}
}

// SetFaultClasses attaches a fault-class spec to the array: sampled faults
// are labelled by faultmodel.ClassOf over (seed, map line, cell) and
// non-persistent ones manifest per fault epoch via the deterministic
// activation hash. A zero spec restores the legacy persistent model.
// Classing is keyed by global fault-map line indices, so strided bank
// views over one shared map agree with a monolithic array bit-for-bit.
func (a *Array) SetFaultClasses(spec faultmodel.ClassSpec, classSeed uint64) {
	a.spec = spec
	a.classSeed = classSeed
	a.classed = !spec.IsZero()
}

// SetFaultEpoch sets the fault epoch used to evaluate intermittent and
// aging faults. The simulator advances it from its clock (cycle / epoch
// length) before touching the array, so activation is a pure function of
// simulated time — never of host scheduling.
func (a *Array) SetFaultEpoch(epoch uint64) { a.faultEpoch = epoch }

// faultActive reports whether a sampled fault manifests on an access right
// now, given its class and the current fault epoch.
func (a *Array) faultActive(mapLine, bit int) bool {
	switch faultmodel.ClassOf(a.classSeed, mapLine, bit, a.spec) {
	case faultmodel.Intermittent:
		return faultmodel.ActiveInEpoch(a.classSeed, mapLine, bit, a.faultEpoch, a.spec.IntermittentProb)
	case faultmodel.Aging:
		return faultmodel.AgingActiveInEpoch(a.classSeed, mapLine, bit, a.faultEpoch, a.spec)
	default:
		return true
	}
}

// Lines returns the number of lines in the array.
func (a *Array) Lines() int { return len(a.lines) }

// SetVoltage changes the operating voltage, recomputing which persistent
// faults are active. Stored data is preserved (the true payloads; whether
// they read back correctly depends on the new fault set). The array's
// previous resolved view is replaced, never mutated, so views shared with
// other arrays are unaffected.
func (a *Array) SetVoltage(vNorm float64) {
	a.active = a.faults.Resolve(vNorm)
}

// Write stores data into line i. The true payload is retained; corruption
// is applied on read, which keeps fault application idempotent and lets
// masked faults unmask when the data changes. Writing erases the line's
// soft errors.
func (a *Array) Write(i int, data bitvec.Line) {
	a.lines[i] = data
	if a.flipped != nil {
		a.setFlips(i, bitvec.Line{})
	}
}

// writePattern stores p in line i's cells without changing its ground
// truth: ReadTrue still returns the last Write, while Read sees p (under
// the stuck-at faults) until the next Write. It models a self-test that
// writes patterns into a line and restores what it read back — Killi's
// §5.6.2 polarity check, which may restore a corrupted read — so the data
// the program last wrote stays the reference for silent data corruption.
func (a *Array) writePattern(i int, p bitvec.Line) {
	a.setFlips(i, p.Xor(a.lines[i]))
}

// stored returns line i's cells as written: the ground-truth payload with
// the flip overlay applied.
func (a *Array) stored(i int) bitvec.Line {
	if a.flipped != nil && a.flipped[i>>6]&(1<<(uint(i)&63)) != 0 {
		return a.lines[i].Xor(a.flips[i])
	}
	return a.lines[i]
}

// setFlips sets line i's flip overlay to x, dropping the entry when x is
// zero.
func (a *Array) setFlips(i int, x bitvec.Line) {
	mask := uint64(1) << (uint(i) & 63)
	if x.IsZero() {
		if a.flipped != nil && a.flipped[i>>6]&mask != 0 {
			a.flipped[i>>6] &^= mask
			delete(a.flips, i)
		}
		return
	}
	if a.flipped == nil {
		a.flipped = make([]uint64, (len(a.lines)+63)/64)
		a.flips = make(map[int]bitvec.Line)
	}
	a.flipped[i>>6] |= mask
	a.flips[i] = x
}

// Read returns the line as the failing cells present it: every active
// stuck-at fault overrides its bit — filtered, under a fault-class spec,
// to the faults manifesting in the current fault epoch.
func (a *Array) Read(i int) bitvec.Line {
	out := a.stored(i)
	mi := a.mapIndex(i)
	if !a.classed {
		for _, f := range a.active.LineFaults(mi) {
			out.SetBit(f.Bit, f.StuckAt)
		}
	} else {
		for _, f := range a.active.LineFaults(mi) {
			if a.faultActive(mi, f.Bit) {
				out.SetBit(f.Bit, f.StuckAt)
			}
		}
	}
	return out
}

// ReadTrue returns the last payload written to line i, without fault
// application or soft errors — the value a fault-free array would return.
// Simulation harnesses use it to check for silent data corruption, and
// the MBIST baselines to derive checkbits, a pure function of the written
// payload, on demand instead of storing them; hardware has no such port.
func (a *Array) ReadTrue(i int) bitvec.Line { return a.lines[i] }

// ActiveFaultCounts sets counts[j] to the number of faults in line
// first+j active at the current voltage — and, under a fault-class spec,
// in the current fault epoch. This is what an instantaneous test
// (MBIST-style characterization) observes, so intermittent faults that
// happen to be dormant are missed exactly the way real profiling misses
// them; use CapableFaultCounts for ground truth. The lines are a run
// within one cache set of the array's view (see runIndex), whose map index
// is translated once: the per-set form an MBIST pass over the whole array
// uses.
func (a *Array) ActiveFaultCounts(first int, counts []int) {
	mi := a.runIndex(first, len(counts))
	for j := range counts {
		counts[j] = a.activeCount(mi + j)
	}
}

// activeCount is the active fault count of the line at map line mi
// (ActiveFaultCounts).
func (a *Array) activeCount(mi int) int {
	if !a.classed {
		return a.active.LineCount(mi)
	}
	n := 0
	for _, f := range a.active.LineFaults(mi) {
		if a.faultActive(mi, f.Bit) {
			n++
		}
	}
	return n
}

// CapableFaultCounts sets counts[j] to the ground-truth fault count of
// line first+j at the current voltage: every fault that can corrupt data
// in some epoch — persistent and intermittent faults always, aging faults
// once their activation ramp is non-zero at the current epoch. The DFH
// misclassification oracle compares classifier state against this;
// hardware has no such port. The lines are a run within one cache set of
// the array's view, whose map index is translated once, as
// ActiveFaultCounts does.
func (a *Array) CapableFaultCounts(first int, counts []int) {
	mi := a.runIndex(first, len(counts))
	for j := range counts {
		counts[j] = a.capableCount(mi + j)
	}
}

// capableCount is the ground-truth fault count of the line at map line mi
// (CapableFaultCounts).
func (a *Array) capableCount(mi int) int {
	if !a.classed {
		return a.active.LineCount(mi)
	}
	n := 0
	for _, f := range a.active.LineFaults(mi) {
		if faultmodel.ClassOf(a.classSeed, mi, f.Bit, a.spec) != faultmodel.Aging ||
			a.spec.AgingProb(a.faultEpoch) > 0 {
			n++
		}
	}
	return n
}

// StuckCells is the §5.6.2 polarity test of line i: it returns the number
// of distinct cells held by an active stuck-at fault — under a fault-class
// spec, those manifesting in the current fault epoch — and leaves the
// line's cells holding p, as writePattern(i, p) does. A self-test that
// writes a pattern and its inverse and reads each back sees exactly these
// cells fail one polarity or the other, whatever the data, soft flips or
// stuck values, so the count is a property of the fault map, not of the
// write/read flow.
func (a *Array) StuckCells(i int, p bitvec.Line) int {
	a.writePattern(i, p)
	mi := a.mapIndex(i)
	faults := a.active.LineFaults(mi)
	if len(faults) == 0 {
		return 0
	}
	var cells bitvec.Line
	for _, f := range faults {
		if !a.classed || a.faultActive(mi, f.Bit) {
			cells.SetBit(f.Bit, 1)
		}
	}
	return cells.PopCount()
}

// InjectSoftError flips bit within the stored cells of line i, modeling a
// transient particle strike. Read sees the flip and ReadTrue does not;
// unlike a persistent fault it is erased by the next Write.
func (a *Array) InjectSoftError(i, bit int) {
	var x bitvec.Line
	if a.flipped != nil {
		x = a.flips[i]
	}
	x.FlipBit(bit)
	a.setFlips(i, x)
}
