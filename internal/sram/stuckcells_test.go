package sram

import (
	"math/bits"
	"testing"

	"killi/internal/bitvec"
	"killi/internal/faultmodel"
	"killi/internal/xrand"
)

// polarityFlow is the §5.6.2 write → read → write-inverted → read flow
// StuckCells replaces, kept as its oracle: write the inverse of data as a
// pattern, read it back, write data back, read again, and count the cells
// that failed either polarity.
func polarityFlow(arr *Array, id int, data bitvec.Line) int {
	inv := invert(data)
	arr.writePattern(id, inv)
	failInv := arr.Read(id).Xor(inv)
	arr.writePattern(id, data)
	failData := arr.Read(id).Xor(data)
	n := 0
	for w := range failInv {
		n += bits.OnesCount64(failInv[w] | failData[w])
	}
	return n
}

// stuckCellsCase builds two identical arrays from seed — a random fault
// map with duplicate bits, an optional fault-class spec at the given
// epoch, written payloads and soft flips — then runs the polarity flow on
// one and StuckCells on the other, line by line, against both a random
// pattern and the line's (possibly corrupted) read. The counts and the
// arrays afterwards must agree.
func stuckCellsCase(t *testing.T, seed, epoch uint64, spec faultmodel.ClassSpec) {
	t.Helper()
	const lines = 16
	r := xrand.New(seed)
	perLine := make([][]faultmodel.Fault, lines)
	for i := range perLine {
		for n := r.Intn(5); n > 0; n-- {
			f := faultmodel.Fault{Bit: r.Intn(bitvec.LineBits), StuckAt: uint(r.Uint64() & 1)}
			perLine[i] = append(perLine[i], f)
			if r.Intn(4) == 0 { // the same cell sampled twice, either polarity
				f.StuckAt = uint(r.Uint64() & 1)
				perLine[i] = append(perLine[i], f)
			}
		}
	}
	fm := faultmodel.NewMapExplicit(faultmodel.Default(), bitvec.LineBits, 1.0, perLine)
	arrays := [2]*Array{New(lines, fm, 0.6), New(lines, fm, 0.6)}
	for _, a := range arrays {
		a.SetFaultClasses(spec, seed^0x5eed)
		a.SetFaultEpoch(epoch)
	}
	ops := xrand.New(seed + 1)
	for i := 0; i < lines; i++ {
		payload := randomLine(ops)
		flips := []int{ops.Intn(bitvec.LineBits), ops.Intn(bitvec.LineBits)}[:ops.Intn(3)]
		pattern := randomLine(ops)
		for _, a := range arrays {
			a.Write(i, payload)
			for _, b := range flips {
				a.InjectSoftError(i, b)
			}
		}
		for k, data := range []bitvec.Line{arrays[0].Read(i), pattern} {
			want := polarityFlow(arrays[0], i, data)
			got := arrays[1].StuckCells(i, data)
			if got != want {
				t.Fatalf("seed %d epoch %d line %d probe %d: StuckCells = %d, polarity flow counts %d",
					seed, epoch, i, k, got, want)
			}
			if arrays[1].Read(i) != arrays[0].Read(i) || arrays[1].ReadTrue(i) != arrays[0].ReadTrue(i) ||
				arrays[1].UnmaskedFaultCount(i) != arrays[0].UnmaskedFaultCount(i) {
				t.Fatalf("seed %d epoch %d line %d probe %d: arrays differ after the test", seed, epoch, i, k)
			}
		}
	}
}

// TestStuckCellsMatchPolarityFlow pins StuckCells to the write/read flow
// it replaces, under the persistent model and under intermittent and aging
// classes across fault epochs.
func TestStuckCellsMatchPolarityFlow(t *testing.T) {
	specs := []string{"persistent", "mixed:i=0.5@0.3", "mixed:i=0.3@0.5,a=0.4@0.05", "mixed:a=0.9@0.2"}
	for _, s := range specs {
		spec, err := faultmodel.ParseClassSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 40; seed++ {
			for _, epoch := range []uint64{0, 1, 3, 17, 400} {
				stuckCellsCase(t, seed, epoch, spec)
			}
		}
	}
}

// FuzzStuckCells drives the same comparison from arbitrary seeds, epochs
// and class mixes.
func FuzzStuckCells(f *testing.F) {
	f.Add(uint64(1), uint64(0), 0.0, 0.0)
	f.Add(uint64(7), uint64(3), 0.5, 0.0)
	f.Add(uint64(9), uint64(60), 0.3, 0.4)
	f.Fuzz(func(t *testing.T, seed, epoch uint64, intermittent, aging float64) {
		if !(intermittent >= 0 && aging >= 0 && intermittent+aging <= 1) {
			return
		}
		spec := faultmodel.ClassSpec{IntermittentFrac: intermittent, IntermittentProb: 0.4,
			AgingFrac: aging, AgingRamp: 0.05}
		stuckCellsCase(t, seed, epoch, spec)
	})
}
