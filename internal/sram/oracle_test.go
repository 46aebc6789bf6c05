package sram

import "killi/internal/bitvec"

// CapableFaultCount returns the ground-truth fault count of line i at the
// current voltage, as CapableFaultCounts reports it for a run of lines.
func (a *Array) CapableFaultCount(i int) int { return a.capableCount(i, a.mapIndex(i)) }

// UnmaskedFaultCount returns the number of active faults in line i whose
// stuck value currently differs from the stored data — the faults that are
// observable right now. Soft errors count: a flipped cell is compared as
// it is stored. The tests use it as the oracle of what a read corrupts.
func (a *Array) UnmaskedFaultCount(i int) int {
	mi := a.mapIndex(i)
	cells := a.stored(i)
	n := 0
	for _, f := range a.active.LineFaults(mi) {
		if a.classed && !a.faultActive(mi, f.Bit) {
			continue
		}
		if cells.Bit(f.Bit) != f.StuckAt {
			n++
		}
	}
	if a.injected != nil {
		for _, f := range a.injected[i] {
			if cells.Bit(f.Bit) != f.StuckAt {
				n++
			}
		}
	}
	return n
}

// invert returns the bitwise complement of l.
func invert(l bitvec.Line) bitvec.Line {
	for i := range l {
		l[i] = ^l[i]
	}
	return l
}
