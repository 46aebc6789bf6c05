// Package secded implements a Single Error Correction, Double Error
// Detection code as an extended Hamming code over an arbitrary number of
// data bits.
//
// For a 512-bit cache line the code uses 10 Hamming checkbits plus one
// overall (global) parity bit — 11 checkbits protecting 523 total bits,
// exactly the configuration in the Killi paper (§4.1).
//
// The decoder additionally exposes the raw syndrome and global parity,
// because Killi's DFH state machine (paper Table 2) keys on the
// (segmented parity, syndrome, global parity) triple rather than on a
// packaged correct/detect verdict.
package secded

import (
	"fmt"
	"math/bits"
	"sync"

	"killi/internal/bitvec"
)

// Status classifies the outcome of a decode.
type Status int

const (
	// OK: no error detected.
	OK Status = iota
	// CorrectedData: a single-bit error in the data was corrected.
	CorrectedData
	// CorrectedCheck: a single-bit error in a checkbit was corrected
	// (the data is intact).
	CorrectedCheck
	// DetectedUncorrectable: a double-bit (or detectable multi-bit) error
	// was found; the data cannot be trusted.
	DetectedUncorrectable
)

// String returns a short human-readable name for the status.
func (s Status) String() string {
	switch s {
	case OK:
		return "ok"
	case CorrectedData:
		return "corrected-data"
	case CorrectedCheck:
		return "corrected-check"
	case DetectedUncorrectable:
		return "detected-uncorrectable"
	default:
		return fmt.Sprintf("secded.Status(%d)", int(s))
	}
}

// Result reports the outcome of a decode.
type Result struct {
	Status Status
	// BitFlipped is the data-bit index that was corrected when Status is
	// CorrectedData, else -1.
	BitFlipped int
	// Syndrome is the raw Hamming syndrome (0 means all parity checks
	// passed). GlobalParityError reports whether the overall parity over
	// data and checkbits mismatched.
	Syndrome          uint32
	GlobalParityError bool
}

// Code is a SECDED code for a fixed number of data bits. The zero value is
// unusable; construct with New.
type Code struct {
	k        int   // data bits
	hamming  int   // Hamming checkbits (excluding global parity)
	dataPos  []int // codeword position (1-based) of each data bit
	checkPos []int // codeword position of each Hamming checkbit (powers of two)
	posData  map[int]int
	// syn[b][v] is what byte b of a 512-bit line adds to the Hamming
	// checkbits when it holds v: the XOR of the codeword positions of v's
	// set bits, since checkbit j is the parity of the data bits whose
	// position has bit j set. Only built for 512-bit codes (the line path).
	syn [][256]uint16
}

// New returns a SECDED code over k data bits. It panics if k <= 0.
func New(k int) *Code {
	if k <= 0 {
		panic("secded: data width must be positive")
	}
	// Smallest r with 2^r >= k + r + 1.
	r := 1
	for (1 << uint(r)) < k+r+1 {
		r++
	}
	c := &Code{k: k, hamming: r, posData: make(map[int]int, k)}
	c.checkPos = make([]int, r)
	for j := 0; j < r; j++ {
		c.checkPos[j] = 1 << uint(j)
	}
	c.dataPos = make([]int, 0, k)
	for pos := 1; len(c.dataPos) < k; pos++ {
		if pos&(pos-1) == 0 { // power of two: checkbit slot
			continue
		}
		c.posData[pos] = len(c.dataPos)
		c.dataPos = append(c.dataPos, pos)
	}
	if k == bitvec.LineBits {
		c.syn = make([][256]uint16, bitvec.LineBits/8)
		for b := range c.syn {
			for v := 1; v < 256; v++ {
				c.syn[b][v] = c.syn[b][v&(v-1)] ^ uint16(c.dataPos[b*8+bits.TrailingZeros8(uint8(v))])
			}
		}
	}
	return c
}

// line is the 512-bit code, built once per process.
var line = sync.OnceValue(func() *Code { return New(bitvec.LineBits) })

// NewLine returns the SECDED code for a 512-bit cache line (11 checkbits).
// It is built once per process and shared: a Code is immutable.
func NewLine() *Code { return line() }

// CheckBits returns the total number of checkbits, including the global
// parity bit (11 for k=512).
func (c *Code) CheckBits() int { return c.hamming + 1 }

// Check is the stored checkbit container: the Hamming checkbits in Bits'
// low bits (bit j is the checkbit at codeword position 2^j) and the global
// parity in Global.
type Check struct {
	Bits   uint32
	Global uint
}

// Encode computes the checkbits for the given data bits. The data vector
// must be exactly k bits wide.
func (c *Code) Encode(data *bitvec.Vector) Check {
	if data.Len() != c.k {
		panic(fmt.Sprintf("secded: Encode data width %d, want %d", data.Len(), c.k))
	}
	var check Check
	ones := 0
	for i := 0; i < c.k; i++ {
		if data.Bit(i) == 0 {
			continue
		}
		ones++
		pos := c.dataPos[i]
		for j := 0; j < c.hamming; j++ {
			if pos&(1<<uint(j)) != 0 {
				check.Bits ^= 1 << uint(j)
			}
		}
	}
	// Global parity covers data bits and Hamming checkbits, so that the
	// total codeword (including the global bit itself) has even parity.
	g := uint(ones) & 1
	for j := 0; j < c.hamming; j++ {
		g ^= uint(check.Bits>>uint(j)) & 1
	}
	check.Global = g
	return check
}

// EncodeLine is a convenience for 512-bit codes that encodes a cache line
// a byte at a time through the syndrome table. It panics if the code is
// not 512 bits wide.
func (c *Code) EncodeLine(l bitvec.Line) Check {
	s := c.lineSyndrome(l)
	return Check{Bits: s, Global: uint(l.PopCount()+bits.OnesCount32(s)) & 1}
}

// lineSyndrome returns the Hamming checkbits of l.
func (c *Code) lineSyndrome(l bitvec.Line) uint32 {
	if c.syn == nil {
		panic("secded: EncodeLine on non-512-bit code")
	}
	var s uint16
	for w, x := range l {
		t := (*[8][256]uint16)(c.syn[w*8:])
		s ^= t[0][uint8(x)] ^ t[1][uint8(x>>8)] ^ t[2][uint8(x>>16)] ^ t[3][uint8(x>>24)] ^
			t[4][uint8(x>>32)] ^ t[5][uint8(x>>40)] ^ t[6][uint8(x>>48)] ^ t[7][uint8(x>>56)]
	}
	return uint32(s)
}

// syndrome returns the raw Hamming syndrome (recomputed data parities XOR
// the stored checkbits) and whether the global parity over the received
// codeword — data bits, stored Hamming checkbits, and the stored global
// bit — is odd. A zero syndrome with even global parity means no detectable
// error.
//
// Note the global check runs over the *received* codeword; recomputing
// fresh checkbits for it would let a data-bit flip cancel against the
// checkbit flips it induces.
func (c *Code) syndrome(data *bitvec.Vector, stored Check) (syndrome uint32, globalErr bool) {
	fresh := c.Encode(data)
	syndrome = fresh.Bits ^ stored.Bits
	globalErr = c.receivedParityOdd(data.PopCount(), stored)
	return syndrome, globalErr
}

// SyndromeLine is syndrome for 512-bit codes operating on a cache line.
func (c *Code) SyndromeLine(l bitvec.Line, stored Check) (syndrome uint32, globalErr bool) {
	return c.lineSyndrome(l) ^ stored.Bits, c.receivedParityOdd(l.PopCount(), stored)
}

// receivedParityOdd reports whether the received codeword (dataOnes data
// ones plus the stored checkbits and global bit) has odd parity.
func (c *Code) receivedParityOdd(dataOnes int, stored Check) bool {
	p := uint(dataOnes) & 1
	p ^= uint(bits.OnesCount32(stored.Bits)) & 1
	p ^= stored.Global & 1
	return p == 1
}

// Decode checks data against the stored checkbits, correcting data in place
// when a single-bit data error is found.
//
// SECDED semantics with an extended Hamming code:
//
//	syndrome == 0, global ok   → no error
//	syndrome != 0, global bad  → single error; correct it
//	syndrome != 0, global ok   → double error; detected, uncorrectable
//	syndrome == 0, global bad  → error in the global parity bit itself
func (c *Code) Decode(data *bitvec.Vector, stored Check) Result {
	syndrome, globalErr := c.syndrome(data, stored)
	res := Result{BitFlipped: -1, Syndrome: syndrome, GlobalParityError: globalErr}
	switch {
	case syndrome == 0 && !globalErr:
		res.Status = OK
	case syndrome == 0 && globalErr:
		// The global parity bit itself flipped; data and Hamming bits fine.
		res.Status = CorrectedCheck
	case syndrome != 0 && globalErr:
		pos := int(syndrome)
		if idx, isData := c.posData[pos]; isData {
			data.FlipBit(idx)
			res.Status = CorrectedData
			res.BitFlipped = idx
		} else if pos&(pos-1) == 0 && pos < 1<<uint(c.hamming) {
			// A stored Hamming checkbit flipped.
			res.Status = CorrectedCheck
		} else {
			// Syndrome points outside the codeword: ≥3 errors aliasing.
			res.Status = DetectedUncorrectable
		}
	default: // syndrome != 0 && !globalErr
		res.Status = DetectedUncorrectable
	}
	return res
}

// DecodeLine is Decode for 512-bit codes operating on a cache line.
func (c *Code) DecodeLine(l *bitvec.Line, stored Check) Result {
	syndrome, globalErr := c.SyndromeLine(*l, stored)
	res := Result{BitFlipped: -1, Syndrome: syndrome, GlobalParityError: globalErr}
	switch {
	case syndrome == 0 && !globalErr:
		res.Status = OK
	case syndrome == 0 && globalErr:
		res.Status = CorrectedCheck
	case syndrome != 0 && globalErr:
		pos := int(syndrome)
		if idx, isData := c.posData[pos]; isData {
			l.FlipBit(idx)
			res.Status = CorrectedData
			res.BitFlipped = idx
		} else if pos&(pos-1) == 0 && pos < 1<<uint(c.hamming) {
			res.Status = CorrectedCheck
		} else {
			res.Status = DetectedUncorrectable
		}
	default:
		res.Status = DetectedUncorrectable
	}
	return res
}
