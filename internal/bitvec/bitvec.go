// Package bitvec provides fixed-width bit vectors used throughout the
// simulator: the 512-bit cache-line payload (Line) and an arbitrary-width
// Vector for ECC codewords.
//
// Bit numbering is little-endian within the vector: bit 0 is the least
// significant bit of word 0. All operations are allocation-free where
// practical because fault application and parity generation run on every
// simulated cache access.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

// LineBits is the number of data bits in a cache line (64 bytes).
const LineBits = 512

// LineWords is the number of 64-bit words backing a Line.
const LineWords = LineBits / 64

// Line is a 512-bit cache-line payload. The zero value is the all-zero line.
// Line is a value type: assignment copies the payload, which mirrors how
// data moves between arrays in hardware.
type Line [LineWords]uint64

// Bit returns bit i (0 or 1). It panics if i is out of range.
func (l Line) Bit(i int) uint {
	if i < 0 || i >= LineBits {
		panic(fmt.Sprintf("bitvec: Line.Bit(%d) out of range", i))
	}
	return uint(l[i>>6]>>(uint(i)&63)) & 1
}

// SetBit sets bit i to v (v's low bit is used).
func (l *Line) SetBit(i int, v uint) {
	if i < 0 || i >= LineBits {
		panic(fmt.Sprintf("bitvec: Line.SetBit(%d) out of range", i))
	}
	mask := uint64(1) << (uint(i) & 63)
	if v&1 == 1 {
		l[i>>6] |= mask
	} else {
		l[i>>6] &^= mask
	}
}

// FlipBit inverts bit i.
func (l *Line) FlipBit(i int) {
	if i < 0 || i >= LineBits {
		panic(fmt.Sprintf("bitvec: Line.FlipBit(%d) out of range", i))
	}
	l[i>>6] ^= uint64(1) << (uint(i) & 63)
}

// Xor returns l XOR other.
func (l Line) Xor(other Line) Line {
	var out Line
	for i := range l {
		out[i] = l[i] ^ other[i]
	}
	return out
}

// PopCount returns the number of set bits.
func (l Line) PopCount() int {
	n := 0
	for _, w := range l {
		n += bits.OnesCount64(w)
	}
	return n
}

// IsZero reports whether all bits are clear.
func (l Line) IsZero() bool {
	for _, w := range l {
		if w != 0 {
			return false
		}
	}
	return true
}

// DiffBits returns the positions at which l and other differ.
func (l Line) DiffBits(other Line) []int {
	var out []int
	for w := 0; w < LineWords; w++ {
		d := l[w] ^ other[w]
		for d != 0 {
			b := bits.TrailingZeros64(d)
			out = append(out, w*64+b)
			d &= d - 1
		}
	}
	return out
}

// String renders the line as 128 hex digits, most significant word first.
func (l Line) String() string {
	var sb strings.Builder
	for i := LineWords - 1; i >= 0; i-- {
		fmt.Fprintf(&sb, "%016x", l[i])
	}
	return sb.String()
}

// Vector is an arbitrary-width bit vector for ECC codewords (data bits plus
// checkbits, e.g. 523 bits for SECDED over a 512-bit line). The zero value
// of a Vector is unusable; construct with NewVector.
type Vector struct {
	n     int
	words []uint64
}

// NewVector returns an all-zero vector of n bits. It panics if n < 0.
func NewVector(n int) *Vector {
	if n < 0 {
		panic("bitvec: NewVector with negative size")
	}
	return &Vector{n: n, words: make([]uint64, (n+63)/64)}
}

// VectorOf returns an n-bit Vector over words without copying them: the
// vector aliases the caller's storage, so writes through it land in words.
// A Line and a 512-bit Vector share one little-endian word layout, so
// VectorOf(l[:], LineBits) hands a line to the ECC codecs; over a local
// array — a copied Line, a stack buffer — it allocates nothing, as long as
// the vector does not outlive the caller's frame. It panics if words holds
// fewer than n bits.
func VectorOf(words []uint64, n int) *Vector {
	if n < 0 || len(words)*64 < n {
		panic("bitvec: VectorOf size out of range")
	}
	return &Vector{n: n, words: words[:(n+63)/64]}
}

// Len returns the width of the vector in bits.
func (v *Vector) Len() int { return v.n }

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: Vector index %d out of range [0,%d)", i, v.n))
	}
}

// Bit returns bit i.
func (v *Vector) Bit(i int) uint {
	v.check(i)
	return uint(v.words[i>>6]>>(uint(i)&63)) & 1
}

// SetBit sets bit i to b's low bit.
func (v *Vector) SetBit(i int, b uint) {
	v.check(i)
	mask := uint64(1) << (uint(i) & 63)
	if b&1 == 1 {
		v.words[i>>6] |= mask
	} else {
		v.words[i>>6] &^= mask
	}
}

// FlipBit inverts bit i.
func (v *Vector) FlipBit(i int) {
	v.check(i)
	v.words[i>>6] ^= uint64(1) << (uint(i) & 63)
}

// Bits returns the n ≤ 64 bits starting at bit i as a word: bit i+b of v
// is bit b of the result.
func (v *Vector) Bits(i, n int) uint64 {
	v.checkRange(i, n)
	if n == 0 {
		return 0
	}
	w, sh := i>>6, uint(i&63)
	x := v.words[w] >> sh
	if sh+uint(n) > 64 {
		x |= v.words[w+1] << (64 - sh)
	}
	return x & (1<<uint(n) - 1)
}

// SetBits sets the n ≤ 64 bits starting at bit i to the low n bits of x,
// leaving every other bit as it was.
func (v *Vector) SetBits(i, n int, x uint64) {
	v.checkRange(i, n)
	if n == 0 {
		return
	}
	w, sh := i>>6, uint(i&63)
	mask := uint64(1)<<uint(n) - 1
	x &= mask
	v.words[w] = v.words[w]&^(mask<<sh) | x<<sh
	if sh+uint(n) > 64 {
		v.words[w+1] = v.words[w+1]&^(mask>>(64-sh)) | x>>(64-sh)
	}
}

func (v *Vector) checkRange(i, n int) {
	if i < 0 || n < 0 || n > 64 || i+n > v.n {
		panic(fmt.Sprintf("bitvec: Vector bits [%d,%d+%d) out of range [0,%d) or wider than a word", i, i, n, v.n))
	}
}

// PopCount returns the number of set bits.
func (v *Vector) PopCount() int {
	n := 0
	for _, w := range v.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns an independent copy of v.
func (v *Vector) Clone() *Vector {
	out := NewVector(v.n)
	copy(out.words, v.words)
	return out
}

// Xor sets v to v XOR other. Both vectors must have the same length.
func (v *Vector) Xor(other *Vector) {
	if v.n != other.n {
		panic("bitvec: Xor of vectors with different lengths")
	}
	for i := range v.words {
		v.words[i] ^= other.words[i]
	}
}

// IsZero reports whether every bit is clear.
func (v *Vector) IsZero() bool {
	for _, w := range v.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Words exposes the vector's backing words (bit i lives at word i/64, bit
// i%64). The slice aliases the vector's storage; callers must treat it as
// read-only. It exists for word-parallel parity computations in ECC hot
// paths.
func (v *Vector) Words() []uint64 { return v.words }
