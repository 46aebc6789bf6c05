// Package olsc implements Orthogonal Latin Square Codes: one-step
// majority-logic decodable codes that correct t errors using 2t·m checkbits
// over m² data bits.
//
// MS-ECC (Chishti et al., MICRO'09), one of the Killi paper's comparison
// points, protects ultra-low-voltage cache lines with OLSC because its
// majority-logic decoder is fast and its strength scales linearly with
// storage: for a 64-byte line, t=11 needs 2·11·23 = 506 checkbits — about
// half the line size, which is exactly MS-ECC's "sacrifice 50 % of cache
// capacity" design point. Killi §5.5 reuses the same code inside the ECC
// cache to chase lower Vmin.
//
// Construction: data bits occupy an m×m grid (m prime). Parity-check family
// 0 sums rows, family 1 sums columns, and family f ≥ 2 sums the cells on
// which the Latin square L_{f-1}(i,j) = (f-1)·i + j (mod m) is constant.
// For prime m these squares are mutually orthogonal, so any two groups from
// different families share exactly one cell; each data bit is checked by 2t
// groups that are otherwise disjoint, enabling one-step majority decoding:
// a bit is flipped iff more than t of its 2t checks fail.
package olsc

import (
	"math/bits"

	"fmt"

	"killi/internal/bitvec"
)

// Status classifies a decode outcome.
type Status int

const (
	// OK: no error detected.
	OK Status = iota
	// Corrected: all errors were corrected by majority logic.
	Corrected
	// DetectedUncorrectable: errors remain after the correction pass.
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
		return fmt.Sprintf("olsc.Status(%d)", int(s))
	}
}

// Result reports a decode outcome.
type Result struct {
	Status Status
	// DataBitsCorrected counts the data bits Decode flipped in place.
	DataBitsCorrected int
	// CheckGroupErrors counts residual parity-group mismatches attributed
	// to checkbit errors.
	CheckGroupErrors int
}

// Code is an OLS code over k data bits correcting up to t errors. A Code is
// immutable after New, so one instance may serve concurrent encoders and
// decoders. The zero value is unusable; construct with New.
type Code struct {
	k, t, m int
	// groups[f][g] lists the data-bit indexes (only those < k) in group g
	// of family f.
	groups [][][]int
	// bitGroups[i] lists the (family, group) check indexes covering data
	// bit i, flattened as f*m+g.
	bitGroups [][]int
	// groupMask[f*m+g] is the word-parallel membership mask of a group:
	// the group's parity is the XOR-popcount of data AND mask.
	groupMask [][]uint64
	words     int
}

// New returns an OLS code for k data bits correcting t errors. The grid
// size m is the smallest prime with m² ≥ k and m+1 ≥ 2t. It panics on
// non-positive parameters.
func New(k, t int) *Code {
	if k <= 0 || t <= 0 {
		panic("olsc: k and t must be positive")
	}
	m := choosePrime(k, t)
	c := &Code{k: k, t: t, m: m}
	nf := 2 * t
	c.groups = make([][][]int, nf)
	c.bitGroups = make([][]int, k)
	for f := 0; f < nf; f++ {
		c.groups[f] = make([][]int, m)
	}
	for idx := 0; idx < k; idx++ {
		i, j := idx/m, idx%m
		for f := 0; f < nf; f++ {
			var g int
			switch f {
			case 0:
				g = i
			case 1:
				g = j
			default:
				g = ((f-1)*i + j) % m
			}
			c.groups[f][g] = append(c.groups[f][g], idx)
			c.bitGroups[idx] = append(c.bitGroups[idx], f*m+g)
		}
	}
	c.words = (k + 63) / 64
	c.groupMask = make([][]uint64, c.CheckBits())
	for f := range c.groups {
		for g, members := range c.groups[f] {
			mask := make([]uint64, c.words)
			for _, idx := range members {
				mask[idx>>6] |= 1 << (uint(idx) & 63)
			}
			c.groupMask[f*m+g] = mask
		}
	}
	return c
}

// NewLine returns the cache-line instantiation over 512 data bits.
// NewLine(11) is the MS-ECC configuration (506 checkbits).
func NewLine(t int) *Code { return New(bitvec.LineBits, t) }

// choosePrime returns the smallest prime m with m*m >= k and m+1 >= 2t.
func choosePrime(k, t int) int {
	m := 2
	for m*m < k || m+1 < 2*t {
		m++
	}
	for !isPrime(m) {
		m++
	}
	return m
}

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// DataBits returns k.
func (c *Code) DataBits() int { return c.k }

// T returns the correction strength.
func (c *Code) T() int { return c.t }

// M returns the grid dimension (a prime).
func (c *Code) M() int { return c.m }

// CheckBits returns the number of checkbits: 2·t·m.
func (c *Code) CheckBits() int { return 2 * c.t * c.m }

// Encode returns the checkbit vector: bit f·m+g is the even parity of
// group g in family f.
func (c *Code) Encode(data *bitvec.Vector) *bitvec.Vector {
	check := bitvec.NewVector(c.CheckBits())
	c.EncodeTo(check, data)
	return check
}

// EncodeTo writes data's checkbits into check, a CheckBits()-wide vector,
// as Encode would return them — without allocating, so a caller can keep
// checkbits in storage of its own.
func (c *Code) EncodeTo(check, data *bitvec.Vector) {
	if data.Len() != c.k {
		panic(fmt.Sprintf("olsc: Encode data width %d, want %d", data.Len(), c.k))
	}
	if check.Len() != c.CheckBits() {
		panic(fmt.Sprintf("olsc: Encode check width %d, want %d", check.Len(), c.CheckBits()))
	}
	words := data.Words()
	for ck, mask := range c.groupMask {
		check.SetBit(ck, c.maskParity(words, mask))
	}
}

// maskParity returns the even parity of data AND mask, word-parallel.
func (c *Code) maskParity(words, mask []uint64) uint {
	ones := 0
	for w := 0; w < c.words; w++ {
		ones += bits.OnesCount64(words[w] & mask[w])
	}
	return uint(ones) & 1
}

// Decode corrects data in place by one-step majority logic, then verifies.
// Up to t data-bit errors are always corrected; residual parity mismatches
// that cannot be attributed to checkbit errors within the t budget are
// reported as DetectedUncorrectable.
func (c *Code) Decode(data *bitvec.Vector, check *bitvec.Vector) Result {
	if data.Len() != c.k {
		panic(fmt.Sprintf("olsc: Decode data width %d, want %d", data.Len(), c.k))
	}
	if check.Len() != c.CheckBits() {
		panic(fmt.Sprintf("olsc: Decode check width %d, want %d", check.Len(), c.CheckBits()))
	}
	// The failed-group flags as a bitset: on the stack for every strength
	// up to MS-ECC's t=11 (506 groups), on the heap beyond.
	var buf [8]uint64
	failed := buf[:]
	if n := (c.CheckBits() + 63) / 64; n > len(buf) {
		failed = make([]uint64, n)
	}
	if c.failedGroups(failed, data, check) == 0 {
		return Result{Status: OK}
	}
	// Majority vote per data bit: flip iff more than t of its 2t checks
	// fail.
	res := Result{}
	for idx := 0; idx < c.k; idx++ {
		votes := 0
		for _, ck := range c.bitGroups[idx] {
			votes += int(failed[ck>>6] >> (uint(ck) & 63) & 1)
		}
		if votes > c.t {
			data.FlipBit(idx)
			res.DataBitsCorrected++
		}
	}
	// Verify: recompute. Remaining single-group mismatches are checkbit
	// errors; they are tolerable while the total error count stays ≤ t.
	remaining := c.failedGroups(failed, data, check)
	res.CheckGroupErrors = remaining
	if remaining == 0 {
		res.Status = Corrected
		return res
	}
	if res.DataBitsCorrected+remaining <= c.t {
		res.Status = Corrected
		return res
	}
	res.Status = DetectedUncorrectable
	return res
}

// failedGroups recomputes every parity group over data and compares with
// the stored checkbits, setting bit f·m+g of failed for each mismatching
// group (and clearing the rest). It returns the mismatch count.
func (c *Code) failedGroups(failed []uint64, data *bitvec.Vector, check *bitvec.Vector) int {
	clear(failed)
	words := data.Words()
	n := 0
	for ck, mask := range c.groupMask {
		if c.maskParity(words, mask) != check.Bit(ck) {
			failed[ck>>6] |= 1 << (uint(ck) & 63)
			n++
		}
	}
	return n
}
