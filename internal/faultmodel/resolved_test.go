package faultmodel

import (
	"testing"

	"killi/internal/xrand"
)

// TestResolveMatchesActiveFaults checks the pre-resolved view against the
// per-query API it replaces on the simulator's hot path: at every voltage,
// line faults, counts, and the 0/1/2+ class must agree exactly with
// ActiveFaults on the packed representation.
func TestResolveMatchesActiveFaults(t *testing.T) {
	fm := NewMap(xrand.New(17), Default(), 3000, 512, 0.55, 1.0)
	for _, v := range []float64{0.5, 0.55, 0.575, 0.6, 0.625, 0.7, 1.0} {
		r := fm.Resolve(v)
		if r.Voltage() != v {
			t.Fatalf("Resolve(%v).Voltage() = %v", v, r.Voltage())
		}
		if r.Lines() != fm.Lines() {
			t.Fatalf("Resolve(%v) covers %d lines, map has %d", v, r.Lines(), fm.Lines())
		}
		for line := 0; line < fm.Lines(); line++ {
			want := fm.ActiveFaults(line, v)
			got := r.LineFaults(line)
			if len(got) != len(want) {
				t.Fatalf("v=%v line %d: resolved %d faults, ActiveFaults %d",
					v, line, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("v=%v line %d fault %d differs: %+v vs %+v",
						v, line, i, got[i], want[i])
				}
			}
			if r.LineCount(line) != len(want) {
				t.Fatalf("v=%v line %d: LineCount %d, want %d",
					v, line, r.LineCount(line), len(want))
			}
			wantClass := uint8(len(want))
			if wantClass > 2 {
				wantClass = 2
			}
			if r.Class(line) != wantClass {
				t.Fatalf("v=%v line %d: class %d, want %d",
					v, line, r.Class(line), wantClass)
			}
		}
	}
}

// TestResolveMonotoneInVoltage asserts the persistence property on the
// resolved views directly: lowering the voltage only ever adds faults, and
// every fault active at the higher voltage stays active at the lower one.
func TestResolveMonotoneInVoltage(t *testing.T) {
	fm := NewMap(xrand.New(23), Default(), 3000, 512, 0.55, 1.0)
	voltages := []float64{1.0, 0.7, 0.625, 0.6, 0.575, 0.55, 0.5}
	prev := fm.Resolve(voltages[0])
	for _, v := range voltages[1:] {
		cur := fm.Resolve(v)
		for line := 0; line < fm.Lines(); line++ {
			hi, lo := prev.LineFaults(line), cur.LineFaults(line)
			if len(lo) < len(hi) {
				t.Fatalf("line %d: %d faults at %v but %d at higher voltage",
					line, len(lo), v, len(hi))
			}
			loBits := map[int]bool{}
			for _, f := range lo {
				loBits[f.Bit] = true
			}
			for _, f := range hi {
				if !loBits[f.Bit] {
					t.Fatalf("line %d: bit %d active at the higher voltage only", line, f.Bit)
				}
			}
		}
		prev = cur
	}
}

// TestResolveSharedViewsIndependent checks that views resolved at
// different voltages from one map do not interfere: resolving a second
// view must not perturb an existing one (they may alias the map's packed
// storage, never each other's filtered copies).
func TestResolveSharedViewsIndependent(t *testing.T) {
	fm := NewMap(xrand.New(29), Default(), 500, 512, 0.55, 1.0)
	a := fm.Resolve(0.575)
	before := make([]int, fm.Lines())
	for line := range before {
		before[line] = a.LineCount(line)
	}
	_ = fm.Resolve(0.7)
	_ = fm.Resolve(0.5)
	for line := 0; line < fm.Lines(); line++ {
		if a.LineCount(line) != before[line] {
			t.Fatalf("line %d: resolving other voltages changed an existing view", line)
		}
	}
}

// ActiveFaults returns the faults of a line active at voltage vNorm
// (vNorm must be ≥ the map's reference voltage for meaningful results;
// higher voltages yield subsets — the monotonicity property). The result
// may alias the map's packed storage and must not be modified. It is the
// per-line oracle of Resolve.
func (fm *Map) ActiveFaults(line int, vNorm float64) []Fault {
	p := fm.model.CellFailureProb(vNorm, fm.freqGHz)
	all := fm.AllFaults(line)
	if p >= fm.refProb {
		// At or below the reference voltage every sampled fault is active
		// (severities are drawn within [0, refProb)).
		return all
	}
	var out []Fault
	for _, f := range all {
		if f.Severity <= p {
			out = append(out, f)
		}
	}
	return out
}
