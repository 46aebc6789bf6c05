package bch

import (
	"fmt"
	"math/bits"
	"sync"

	"killi/internal/bitvec"
)

// Status classifies a decode outcome.
type Status int

const (
	// OK: no error detected.
	OK Status = iota
	// Corrected: up to t errors were located and corrected in place.
	Corrected
	// DetectedUncorrectable: more errors than the code can correct were
	// detected; the data cannot be trusted.
	DetectedUncorrectable
)

// String returns a short human-readable status name.
func (s Status) String() string {
	switch s {
	case OK:
		return "ok"
	case Corrected:
		return "corrected"
	case DetectedUncorrectable:
		return "detected-uncorrectable"
	default:
		return fmt.Sprintf("bch.Status(%d)", int(s))
	}
}

// Result reports the outcome of a decode.
type Result struct {
	Status Status
	// DataBitsCorrected counts the data bits Decode flipped back in place.
	// Corrections confined to checkbits do not count here.
	DataBitsCorrected int
	// CheckBitsFlipped counts corrected errors that fell in the checkbit
	// region.
	CheckBitsFlipped int
}

// MaxT is the strongest correction New accepts: 6EC7ED, the strongest
// line code the paper considers. It bounds the decoder's fixed-size
// working arrays (2t syndromes, a degree-≤2t locator), which live on the
// stack so a decode never allocates.
const MaxT = 6

// Code is a binary primitive BCH code shortened to k data bits, correcting
// up to t errors, with an optional extended overall-parity bit for one
// extra bit of detection (e.g. DECTED = t=2 extended). Its checkbits fit
// one 64-bit word. A Code is immutable after New, so one instance may
// serve concurrent encoders and decoders. The zero value is unusable;
// construct with New.
type Code struct {
	f        *Field
	t        int
	k        int
	gen      []byte // generator polynomial over GF(2); gen[i] = coeff of x^i
	degG     int
	extended bool
	// rem[i] is x^(degG+i) mod g(x), bit j = coefficient of x^j: data bit
	// i's contribution to the checkbits, which are linear in the data.
	rem []uint64
}

// New returns a BCH code over GF(2^m) correcting t errors, shortened to k
// data bits. If extended is true, one overall parity bit is appended to the
// checkbits, upgrading detection from 2t to 2t+1 errors. It panics if the
// parameters do not fit (k + deg(g) must be ≤ 2^m - 1).
func New(m, t, k int, extended bool) *Code {
	if t < 1 {
		panic("bch: t must be >= 1")
	}
	if t > MaxT {
		panic(fmt.Sprintf("bch: t=%d exceeds MaxT=%d", t, MaxT))
	}
	if k < 1 {
		panic("bch: k must be >= 1")
	}
	f := NewField(m)
	gen := generator(f, t)
	degG := len(gen) - 1
	if k+degG > f.n {
		panic(fmt.Sprintf("bch: k=%d + checkbits=%d exceeds n=%d for m=%d", k, degG, f.n, m))
	}
	if degG > 64 {
		panic(fmt.Sprintf("bch: %d checkbits exceed one 64-bit Check word", degG))
	}
	c := &Code{f: f, t: t, k: k, gen: gen, degG: degG, extended: extended, rem: make([]uint64, k)}
	// x^degG mod g(x) is g(x) without its leading term; each further power
	// shifts left and reduces by g(x) when the x^degG term appears.
	var low uint64
	for j := 0; j < degG; j++ {
		low |= uint64(gen[j]) << uint(j)
	}
	r := low
	for i := range c.rem {
		c.rem[i] = r
		top := r>>uint(degG-1)&1 == 1
		r = r << 1 & (1<<uint(degG) - 1)
		if top {
			r ^= low
		}
	}
	return c
}

// NewLine returns the standard cache-line instantiation: GF(2^10), 512 data
// bits, correcting t errors, extended. Each strength is built once per
// process and shared: a Code is immutable.
//
//	t=2 → DECTED (21 checkbits), t=3 → TECQED (31), t=6 → 6EC7ED (61)
func NewLine(t int) *Code {
	if t < 1 || t > MaxT {
		return New(10, t, bitvec.LineBits, true) // panics
	}
	return lineCodes[t]()
}

// lineCodes[t] builds the line code of strength t once per process.
var lineCodes = func() (codes [MaxT + 1]func() *Code) {
	for t := 1; t <= MaxT; t++ {
		codes[t] = sync.OnceValue(func() *Code { return New(10, t, bitvec.LineBits, true) })
	}
	return codes
}()

// generator returns the generator polynomial g(x) over GF(2) for a t-error-
// correcting primitive BCH code: the least common multiple of the minimal
// polynomials of α, α^2, …, α^2t. Because conjugates share a minimal
// polynomial, it suffices to take distinct cyclotomic cosets.
func generator(f *Field, t int) []byte {
	covered := make(map[int]bool)
	g := []byte{1}
	for s := 1; s <= 2*t; s++ {
		if covered[s] {
			continue
		}
		// Cyclotomic coset of s: {s, 2s, 4s, ...} mod n.
		coset := []int{}
		for c := s; !covered[c]; c = (2 * c) % f.n {
			covered[c] = true
			coset = append(coset, c)
		}
		// Minimal polynomial: Π (x + α^c), computed in GF(2^m); the result
		// has all coefficients in {0,1}.
		mp := []uint32{1}
		for _, c := range coset {
			root := f.Pow(c)
			next := make([]uint32, len(mp)+1)
			for i, coef := range mp {
				next[i+1] ^= coef            // x * mp
				next[i] ^= f.Mul(coef, root) // root * mp
			}
			mp = next
		}
		// Multiply g by mp over GF(2).
		mpBits := make([]byte, len(mp))
		for i, coef := range mp {
			if coef > 1 {
				panic("bch: minimal polynomial has non-binary coefficient")
			}
			mpBits[i] = byte(coef)
		}
		g = polyMulGF2(g, mpBits)
	}
	return g
}

// polyMulGF2 multiplies two polynomials over GF(2).
func polyMulGF2(a, b []byte) []byte {
	out := make([]byte, len(a)+len(b)-1)
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		for j, bj := range b {
			out[i+j] ^= bj
		}
	}
	return out
}

// T returns the error-correction strength.
func (c *Code) T() int { return c.t }

// CheckBits returns the number of checkbits, including the extension bit
// when present (21 for NewLine(2)).
func (c *Code) CheckBits() int {
	if c.extended {
		return c.degG + 1
	}
	return c.degG
}

// Check holds the stored checkbits: bit i of Bits is the codeword
// coefficient of x^i, for i < CheckBits() excluding the extension bit;
// Global is the extension parity bit (always 0 when the code is not
// extended). It is a plain value, so storing or passing one never
// allocates.
type Check struct {
	Bits   uint64
	Global uint
}

// Encode computes the checkbits for data systematically: the codeword is
// x^degG·d(x) + ((x^degG·d(x)) mod g(x)), so data occupies the high
// coefficient positions and the remainder forms the checkbits. The
// remainder is linear in the data, so it is the XOR of each set data bit's
// precomputed x^(degG+i) mod g(x).
func (c *Code) Encode(data *bitvec.Vector) Check {
	if data.Len() != c.k {
		panic(fmt.Sprintf("bch: Encode data width %d, want %d", data.Len(), c.k))
	}
	var check Check
	for w, word := range data.Words() {
		for word != 0 {
			check.Bits ^= c.rem[w*64+bits.TrailingZeros64(word)]
			word &= word - 1
		}
	}
	if c.extended {
		check.Global = uint(data.PopCount()+bits.OnesCount64(check.Bits)) & 1
	}
	return check
}

// syndromes returns S_1..S_2t, where S_j = r(α^j) over the received
// codeword r, in the first 2t entries of a fixed-size array. Codeword
// positions [0, degG) are checkbits, [degG, degG+k) data bits.
func (c *Code) syndromes(data *bitvec.Vector, check Check) [2 * MaxT]uint32 {
	var syn [2 * MaxT]uint32
	n := 2 * c.t
	add := func(p int) {
		for j := 1; j <= n; j++ {
			syn[j-1] ^= c.f.Pow(p * j)
		}
	}
	for cb := check.Bits; cb != 0; cb &= cb - 1 {
		add(bits.TrailingZeros64(cb))
	}
	for w, word := range data.Words() {
		for ; word != 0; word &= word - 1 {
			add(c.degG + w*64 + bits.TrailingZeros64(word))
		}
	}
	return syn
}

// poly is a polynomial over GF(2^m) of degree ≤ 2·MaxT held in a
// fixed-size array: c[i] is the coefficient of x^i for i < n.
type poly struct {
	c [2*MaxT + 1]uint32
	n int
}

// berlekampMassey returns the error-locator polynomial σ(x) (σ[0] = 1) for
// the given syndromes.
func (c *Code) berlekampMassey(syn []uint32) poly {
	f := c.f
	sigma := poly{n: 1}
	sigma.c[0] = 1
	b := sigma
	L, mShift := 0, 1
	var bCoef uint32 = 1
	for n := 0; n < len(syn); n++ {
		// Discrepancy d = S_n + Σ σ_i · S_{n-i}.
		d := syn[n]
		for i := 1; i <= L && i < sigma.n; i++ {
			d ^= f.Mul(sigma.c[i], syn[n-i])
		}
		if d == 0 {
			mShift++
			continue
		}
		coef := f.Div(d, bCoef)
		if 2*L <= n {
			prev := sigma
			sigma.addScaledShift(f, &b, coef, mShift)
			b = prev
			L = n + 1 - L
			bCoef = d
			mShift = 1
		} else {
			sigma.addScaledShift(f, &b, coef, mShift)
			mShift++
		}
	}
	// Trim trailing zeros.
	for sigma.n > 1 && sigma.c[sigma.n-1] == 0 {
		sigma.n--
	}
	return sigma
}

// addScaledShift sets p to p + coef·x^shift·b over GF(2^m).
func (p *poly) addScaledShift(f *Field, b *poly, coef uint32, shift int) {
	for i := p.n; i < b.n+shift; i++ {
		p.c[i] = 0
	}
	p.n = max(p.n, b.n+shift)
	for i := 0; i < b.n; i++ {
		p.c[i+shift] ^= f.Mul(coef, b.c[i])
	}
}

// chien locates error positions by searching for roots of σ over the
// shortened codeword positions [0, degG+k). A root of σ at x = α^{-p}
// marks an error at coefficient position p. It returns the positions in
// the first count entries of a fixed-size array; ok is false if any root
// falls outside the shortened range or the root count does not match
// deg σ (decoder failure → detected uncorrectable).
func (c *Code) chien(sigma *poly) (positions [MaxT]int, count int, ok bool) {
	degSigma := sigma.n - 1
	if degSigma == 0 {
		return positions, 0, true
	}
	nTotal := c.degG + c.k
	for p := 0; p < c.f.n; p++ {
		if c.f.PolyEval(sigma.c[:sigma.n], c.f.Pow(-p)) == 0 {
			if p >= nTotal || count == degSigma {
				// A root in the shortened (absent) region, or more roots
				// than the locator's degree.
				return positions, 0, false
			}
			positions[count] = p
			count++
		}
	}
	if count != degSigma {
		return positions, 0, false
	}
	return positions, count, true
}

// Decode checks data against the stored checkbits, correcting up to t
// errors in place. With the extended parity bit, a (t+1)-error pattern that
// would otherwise alias to a ≤t-error correction of the wrong parity is
// flagged as uncorrectable instead.
func (c *Code) Decode(data *bitvec.Vector, check Check) Result {
	if data.Len() != c.k {
		panic(fmt.Sprintf("bch: Decode data width %d, want %d", data.Len(), c.k))
	}
	syn := c.syndromes(data, check)
	allZero := true
	for _, s := range syn {
		if s != 0 {
			allZero = false
			break
		}
	}
	parityMismatch := false
	if c.extended {
		got := uint(data.PopCount()+bits.OnesCount64(check.Bits)) & 1
		parityMismatch = got != check.Global&1
	}
	if allZero {
		if parityMismatch {
			// Single flip of the stored extension bit itself (or an even
			// aliasing pattern): correct by trusting the zero syndromes.
			return Result{Status: Corrected, CheckBitsFlipped: 1}
		}
		return Result{Status: OK}
	}
	sigma := c.berlekampMassey(syn[:2*c.t])
	if sigma.n-1 > c.t {
		return Result{Status: DetectedUncorrectable}
	}
	positions, count, ok := c.chien(&sigma)
	if !ok {
		return Result{Status: DetectedUncorrectable}
	}
	if c.extended && (count&1 == 1) != parityMismatch {
		// The corrected-error count disagrees with the overall parity:
		// at least 2t+1 errors are present.
		return Result{Status: DetectedUncorrectable}
	}
	res := Result{Status: Corrected}
	for _, p := range positions[:count] {
		if p < c.degG {
			res.CheckBitsFlipped++
		} else {
			data.FlipBit(p - c.degG)
			res.DataBitsCorrected++
		}
	}
	return res
}
