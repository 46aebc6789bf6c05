// Package march implements Memory Built-In Self-Test (MBIST) March
// algorithms against the bit-level SRAM array — the very machinery the
// paper's baselines depend on and Killi eliminates.
//
// A March test is a sequence of elements, each applying read/write
// operations with an expected value to every cell in address order. The
// classic March C- detects all stuck-at, transition, and coupling faults
// with 10 operations per cell:
//
//	⇕(w0); ⇑(r0,w1); ⇑(r1,w0); ⇓(r0,w1); ⇓(r1,w0); ⇕(r0)
//
// Against this simulator's stuck-at fault model, both polarities of every
// cell are read back, so the test provably finds every active persistent
// fault — including faults that demand-access parity/ECC would see only
// after the data happens to unmask them. That completeness is exactly what
// pre-characterized schemes buy with the transition-time stall that
// internal/dvfs charges them.
package march

import (
	"killi/internal/bitvec"
	"killi/internal/sram"
)

// Result is the fault bitmap one MBIST pass produces.
type Result struct {
	// FaultyBits[line] lists the bit positions that failed the test.
	FaultyBits [][]int
	// Ops is the total number of line operations performed (reads +
	// writes), the quantity the dvfs stall model charges for.
	Ops uint64
}

// FaultCount returns the number of faulty bits found in a line.
func (r Result) FaultCount(line int) int { return len(r.FaultyBits[line]) }

// element is one March element: an optional read-verify against expect,
// then an optional write of value. Ascending/descending order is
// irrelevant for stuck-at faults but retained for op accounting.
type element struct {
	read       bool
	expect     uint // 0 or 1 (all cells)
	write      bool
	value      uint
	descending bool
}

// marchCMinus is the 10N March C- sequence.
var marchCMinus = []element{
	{write: true, value: 0},
	{read: true, expect: 0, write: true, value: 1},
	{read: true, expect: 1, write: true, value: 0},
	{read: true, expect: 0, write: true, value: 1, descending: true},
	{read: true, expect: 1, write: true, value: 0, descending: true},
	{read: true, expect: 0},
}

// line-wide constant payloads.
func fill(v uint) bitvec.Line {
	var l bitvec.Line
	if v == 1 {
		for w := range l {
			l[w] = ^uint64(0)
		}
	}
	return l
}

// run applies a March sequence to lines [0, n) of the array, recording
// every mismatching bit. The array's stored contents are destroyed (MBIST
// is destructive; schemes run it on an invalidated cache).
func run(arr *sram.Array, n int, seq []element) Result {
	res := Result{FaultyBits: make([][]int, n)}
	faulty := make([]map[int]bool, n)
	for _, el := range seq {
		for i := 0; i < n; i++ {
			line := i
			if el.descending {
				line = n - 1 - i
			}
			if el.read {
				got := arr.Read(line)
				want := fill(el.expect)
				for _, bit := range got.DiffBits(want) {
					if faulty[line] == nil {
						faulty[line] = map[int]bool{}
					}
					faulty[line][bit] = true
				}
				res.Ops++
			}
			if el.write {
				arr.Write(line, fill(el.value))
				res.Ops++
			}
		}
	}
	for line, set := range faulty {
		for bit := range set {
			res.FaultyBits[line] = append(res.FaultyBits[line], bit)
		}
	}
	return res
}

// CMinus runs the full March C- pass over the first n lines.
func CMinus(arr *sram.Array, n int) Result { return run(arr, n, marchCMinus) }
