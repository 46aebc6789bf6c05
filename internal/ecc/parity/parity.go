// Package parity implements the segmented, interleaved parity used by Killi
// for cheap error detection (paper §4.1).
//
// A 512-bit cache line is logically divided into S interleaved segments:
// bit i belongs to segment i mod S. One even-parity bit is kept per segment.
// Interleaving improves coverage for spatially adjacent multi-bit soft
// errors; for LV faults (randomly placed) it is neutral. Killi uses S=16
// (32-bit segments) while a line's fault status is unknown, and S=4 (128-bit
// segments) once the line has a stable classification.
package parity

import (
	"fmt"
	"math/bits"

	"killi/internal/bitvec"
)

// Scheme computes interleaved segmented parity over a 512-bit line.
// The zero value is unusable; construct with NewInterleaved.
type Scheme struct {
	segments int
}

// NewInterleaved returns a parity scheme with the given number of
// interleaved segments. The segment count must be a power of two between 1
// and 64 so that segment membership is constant across the line's 64-bit
// words (64 is a multiple of every such count).
func NewInterleaved(segments int) Scheme {
	if segments < 1 || segments > 64 || segments&(segments-1) != 0 {
		panic(fmt.Sprintf("parity: segment count %d must be a power of two in [1,64]", segments))
	}
	return Scheme{segments: segments}
}

// Generate returns the parity word: bit g of the result is the even parity
// of segment g. Only the low bits, one per segment, are meaningful.
func (s Scheme) Generate(l bitvec.Line) uint64 {
	// Bit i of word w has global index w*64 + p, and since the segment
	// count divides 64, its segment is p mod segments. XOR-folding all
	// words, then folding 64 bits down to the segment width, yields all
	// segment parities at once.
	var fold uint64
	for _, w := range l {
		fold ^= w
	}
	for width := 64; width > s.segments; width >>= 1 {
		fold ^= fold >> uint(width/2)
	}
	if s.segments == 64 {
		return fold
	}
	return fold & (1<<uint(s.segments) - 1)
}

// Check compares freshly generated parity for l against the stored parity
// word and returns the per-segment mismatch mask and the number of
// mismatching segments.
func (s Scheme) Check(l bitvec.Line, stored uint64) (mask uint64, mismatches int) {
	mask = s.Generate(l) ^ stored
	if s.segments < 64 {
		mask &= 1<<uint(s.segments) - 1
	}
	return mask, bits.OnesCount64(mask)
}

// Fold reduces a 16-segment parity word to the corresponding 4-segment
// parity word. Because segments are interleaved (segment = bit index mod S),
// the 4-wide segment g is the union of 16-wide segments {g, g+4, g+8, g+12},
// so its parity is the XOR of those four bits. Killi uses this when a line
// transitions from the unknown state (16 parity bits) to a stable state
// (4 parity bits) without re-reading the data array.
func Fold(p16 uint64) uint64 {
	p16 &= 0xffff
	return (p16 ^ p16>>4 ^ p16>>8 ^ p16>>12) & 0xf
}
