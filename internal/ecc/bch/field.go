// Package bch implements binary primitive BCH codes over GF(2^m) with
// configurable error-correction strength t, plus an optional extended
// (overall-parity) bit that adds one level of error detection.
//
// The Killi paper uses this family for its stronger-than-SECDED options:
//
//	DECTED  = t=2 extended  (21 checkbits for a 64-byte line: 2×10 + 1)
//	TECQED  = t=3 extended  (31 checkbits)
//	6EC7ED  = t=6 extended  (61 checkbits)
//
// The implementation is from scratch: GF(2^m) log/antilog tables, generator
// polynomial construction from cyclotomic cosets, systematic encoding from
// a per-data-bit remainder table (checked against the bit-serial LFSR),
// Berlekamp–Massey error-locator synthesis and Chien search decoding over
// the shortened code. Encoding and decoding allocate nothing.
package bch

import "fmt"

// primitivePoly[m] is a primitive polynomial of degree m over GF(2),
// represented with bit i = coefficient of x^i (the x^m term included).
var primitivePoly = map[int]uint32{
	3:  0xb,    // x^3+x+1
	4:  0x13,   // x^4+x+1
	5:  0x25,   // x^5+x^2+1
	6:  0x43,   // x^6+x+1
	7:  0x89,   // x^7+x^3+1
	8:  0x11d,  // x^8+x^4+x^3+x^2+1
	9:  0x211,  // x^9+x^4+1
	10: 0x409,  // x^10+x^3+1
	11: 0x805,  // x^11+x^2+1
	12: 0x1053, // x^12+x^6+x^4+x+1
	13: 0x201b, // x^13+x^4+x^3+x+1
}

// Field is GF(2^m) with precomputed log/antilog tables. The zero value is
// unusable; construct with NewField.
type Field struct {
	m   int
	n   int      // multiplicative group order: 2^m - 1
	exp []uint32 // exp[i] = α^i for i in [0, 2n)
	log []int    // log[x] = i with α^i = x, for x in [1, 2^m)
}

// NewField returns GF(2^m). Supported m range is [3, 13]; it panics
// otherwise (cache-line BCH uses m=10).
func NewField(m int) *Field {
	poly, ok := primitivePoly[m]
	if !ok {
		panic(fmt.Sprintf("bch: unsupported field degree m=%d", m))
	}
	n := (1 << uint(m)) - 1
	f := &Field{
		m:   m,
		n:   n,
		exp: make([]uint32, 2*n),
		log: make([]int, 1<<uint(m)),
	}
	x := uint32(1)
	for i := 0; i < n; i++ {
		f.exp[i] = x
		f.exp[i+n] = x // duplicated so Mul can skip a modulo
		f.log[x] = i
		x <<= 1
		if x&(1<<uint(m)) != 0 {
			x ^= poly
		}
	}
	return f
}

// N returns the multiplicative group order 2^m - 1 (the natural BCH code
// length).
func (f *Field) N() int { return f.n }

// Mul returns the product a·b in GF(2^m).
func (f *Field) Mul(a, b uint32) uint32 {
	if a == 0 || b == 0 {
		return 0
	}
	return f.exp[f.log[a]+f.log[b]]
}

// Div returns a/b. It panics on b == 0.
func (f *Field) Div(a, b uint32) uint32 {
	if b == 0 {
		panic("bch: division by zero")
	}
	if a == 0 {
		return 0
	}
	return f.exp[(f.log[a]-f.log[b]+f.n)%f.n]
}

// Pow returns α^e for any integer e (negative allowed).
func (f *Field) Pow(e int) uint32 {
	e %= f.n
	if e < 0 {
		e += f.n
	}
	return f.exp[e]
}

// Log returns the discrete log of a (the e with α^e = a). It panics on
// a == 0.
func (f *Field) Log(a uint32) int {
	if a == 0 {
		panic("bch: log of zero")
	}
	return f.log[a]
}

// PolyEval evaluates the polynomial with coefficients coeffs (coeffs[i] is
// the coefficient of x^i) at the point x, using Horner's rule.
func (f *Field) PolyEval(coeffs []uint32, x uint32) uint32 {
	var acc uint32
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = f.Mul(acc, x) ^ coeffs[i]
	}
	return acc
}
