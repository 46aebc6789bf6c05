package march

import (
	"sort"
	"testing"

	"killi/internal/bitvec"
	"killi/internal/faultmodel"
	"killi/internal/sram"
	"killi/internal/xrand"
)

func newArray(t *testing.T, lines int, v float64, seed uint64) *sram.Array {
	t.Helper()
	fm := faultmodel.NewMap(xrand.New(seed), faultmodel.Default(), lines, bitvec.LineBits, 0.55, 1.0)
	return sram.New(lines, fm, v)
}

func TestMarchMatchesOracle(t *testing.T) {
	// March C- must find exactly the active stuck-at faults the
	// simulator's oracle knows about — the completeness guarantee
	// pre-characterized schemes pay for.
	t.Run("march-c-", func(t *testing.T) {
		arr := newArray(t, 800, 0.575, 7)
		res := CMinus(arr, 800)
		var oracle [1]int
		for i := 0; i < 800; i++ {
			arr.ActiveFaultCounts(i, oracle[:])
			if res.FaultCount(i) != oracle[0] {
				t.Fatalf("line %d: march found %d faults, oracle has %d",
					i, res.FaultCount(i), oracle[0])
			}
		}
	})
}

func TestMarchFindsSpecificStuckBits(t *testing.T) {
	faults := [][]faultmodel.Fault{
		nil,
		{{Bit: 5, StuckAt: 0}, {Bit: 300, StuckAt: 1}},
		{{Bit: 511, StuckAt: 1}},
	}
	fm := faultmodel.NewMapExplicit(faultmodel.Default(), bitvec.LineBits, 1.0, faults)
	arr := sram.New(3, fm, 0.6)
	res := CMinus(arr, 3)
	if res.FaultCount(0) != 0 {
		t.Fatalf("clean line reported %v", res.FaultyBits[0])
	}
	got := append([]int(nil), res.FaultyBits[1]...)
	sort.Ints(got)
	if len(got) != 2 || got[0] != 5 || got[1] != 300 {
		t.Fatalf("line 1 faults %v, want [5 300]", got)
	}
	if res.FaultCount(2) != 1 || res.FaultyBits[2][0] != 511 {
		t.Fatalf("line 2 faults %v", res.FaultyBits[2])
	}
}

func TestMarchOpCounts(t *testing.T) {
	arr := newArray(t, 100, 1.0, 1)
	// March C-: 10 ops per line.
	if res := CMinus(arr, 100); res.Ops != 1000 {
		t.Fatalf("March C- ops = %d, want 1000", res.Ops)
	}
}

func TestMarchResultAccessors(t *testing.T) {
	arr := newArray(t, 10, 1.0, 2)
	res := CMinus(arr, 10)
	if res.Lines() != 10 {
		t.Fatalf("Lines = %d", res.Lines())
	}
}

// Lines returns the number of lines tested.
func (r Result) Lines() int { return len(r.FaultyBits) }
