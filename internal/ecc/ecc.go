// Package ecc unifies the error-correction codecs used by the simulator
// behind a single cache-line-level interface.
//
// The concrete codes live in subpackages (parity, secded, bch, olsc); this
// package adapts them to a common Codec interface so that protection
// schemes (Killi, DECTED-per-line, FLAIR, MS-ECC) can be composed without
// caring which code family supplies correction.
package ecc

import (
	"fmt"

	"killi/internal/bitvec"
	"killi/internal/ecc/bch"
	"killi/internal/ecc/olsc"
	"killi/internal/ecc/secded"
)

// Status classifies a decode outcome, collapsing the per-code statuses.
type Status int

const (
	// OK: no error detected.
	OK Status = iota
	// Corrected: every detected error was corrected; data is clean.
	Corrected
	// Detected: errors were detected but could not be corrected.
	Detected
)

// String returns a short status name.
func (s Status) String() string {
	switch s {
	case OK:
		return "ok"
	case Corrected:
		return "corrected"
	case Detected:
		return "detected"
	default:
		return fmt.Sprintf("ecc.Status(%d)", int(s))
	}
}

// Outcome reports a decode.
type Outcome struct {
	Status Status
	// DataBitsCorrected is the number of data-bit flips applied.
	DataBitsCorrected int
}

// MaxCheckBits is the widest checkbit payload a Check holds: one line's
// worth, which covers every codec here up to MS-ECC's OLSC(11) at 506
// bits.
const MaxCheckBits = bitvec.LineBits

// Check is an opaque stored-checkbit container produced by a Codec's
// Encode and consumed by its Decode. It is a plain value with its bits
// inline, so encoding and decoding never allocate. Checks are not
// interchangeable across codecs.
type Check struct {
	bits   [MaxCheckBits / 64]uint64
	n      int
	global uint
}

// Bits exposes the checkbit payload width for storage accounting.
func (c Check) Bits() int { return c.n }

// Codec encodes and decodes 512-bit cache lines.
type Codec interface {
	// Name is a short stable identifier ("secded", "dected", ...).
	Name() string
	// CheckBits is the stored checkbit count per line.
	CheckBits() int
	// CorrectsUpTo is the guaranteed correctable error count t.
	CorrectsUpTo() int
	// DetectsUpTo is the guaranteed detectable error count.
	DetectsUpTo() int
	// Encode computes checkbits for a line.
	Encode(l bitvec.Line) Check
	// Decode verifies l against stored checkbits, correcting l in place
	// when possible.
	Decode(l *bitvec.Line, c Check) Outcome
}

// --- SECDED adapter ---

type secdedCodec struct{ c *secded.Code }

func (s secdedCodec) Name() string      { return "secded" }
func (s secdedCodec) CheckBits() int    { return s.c.CheckBits() }
func (s secdedCodec) CorrectsUpTo() int { return 1 }
func (s secdedCodec) DetectsUpTo() int  { return 2 }

func (s secdedCodec) Encode(l bitvec.Line) Check {
	ck := s.c.EncodeLine(l)
	c := Check{n: s.c.CheckBits() - 1, global: ck.Global}
	c.bits[0] = uint64(ck.Bits)
	return c
}

func (s secdedCodec) Decode(l *bitvec.Line, c Check) Outcome {
	res := s.c.DecodeLine(l, secded.Check{Bits: uint32(c.bits[0]), Global: c.global})
	switch res.Status {
	case secded.OK:
		return Outcome{Status: OK}
	case secded.CorrectedData:
		return Outcome{Status: Corrected, DataBitsCorrected: 1}
	case secded.CorrectedCheck:
		return Outcome{Status: Corrected}
	default:
		return Outcome{Status: Detected}
	}
}

// --- BCH adapter ---

// bchCodec adapts the t=2 binary BCH line code: DECTED, its only
// constructor here.
type bchCodec struct{ c *bch.Code }

func (b bchCodec) Name() string      { return "dected" }
func (b bchCodec) CheckBits() int    { return b.c.CheckBits() }
func (b bchCodec) CorrectsUpTo() int { return b.c.T() }
func (b bchCodec) DetectsUpTo() int  { return b.c.T() + 1 }

func (b bchCodec) Encode(l bitvec.Line) Check {
	ck := b.c.Encode(bitvec.VectorOf(l[:], bitvec.LineBits))
	c := Check{n: b.c.CheckBits(), global: ck.Global}
	if b.c.Extended() {
		c.n-- // the extension bit travels in global
	}
	c.bits[0] = ck.Bits
	return c
}

func (b bchCodec) Decode(l *bitvec.Line, c Check) Outcome {
	// Decode a copy so an uncorrectable line is left as read.
	d := *l
	res := b.c.Decode(bitvec.VectorOf(d[:], bitvec.LineBits), bch.Check{Bits: c.bits[0], Global: c.global})
	switch res.Status {
	case bch.OK:
		return Outcome{Status: OK}
	case bch.Corrected:
		*l = d
		return Outcome{Status: Corrected, DataBitsCorrected: res.DataBitsCorrected}
	default:
		return Outcome{Status: Detected}
	}
}

// --- OLSC adapter ---

type olscCodec struct{ c *olsc.Code }

func (o olscCodec) Name() string      { return fmt.Sprintf("olsc-%d", o.c.T()) }
func (o olscCodec) CheckBits() int    { return o.c.CheckBits() }
func (o olscCodec) CorrectsUpTo() int { return o.c.T() }
func (o olscCodec) DetectsUpTo() int  { return o.c.T() }

func (o olscCodec) Encode(l bitvec.Line) Check {
	c := Check{n: o.c.CheckBits()}
	o.c.EncodeTo(bitvec.VectorOf(c.bits[:], c.n), bitvec.VectorOf(l[:], bitvec.LineBits))
	return c
}

func (o olscCodec) Decode(l *bitvec.Line, c Check) Outcome {
	// Majority logic flips bits before it knows the line is correctable:
	// decode a copy so an uncorrectable line is left as read.
	d := *l
	res := o.c.Decode(bitvec.VectorOf(d[:], bitvec.LineBits), bitvec.VectorOf(c.bits[:], c.n))
	switch res.Status {
	case olsc.OK:
		return Outcome{Status: OK}
	case olsc.Corrected:
		*l = d
		return Outcome{Status: Corrected, DataBitsCorrected: res.DataBitsCorrected}
	default:
		return Outcome{Status: Detected}
	}
}

// The codecs wrap each line code's one process-wide instance, so every
// call returns an equal Codec and builds nothing after the first.

// SECDED returns the 11-checkbit SECDED codec for 64-byte lines.
func SECDED() Codec { return secdedCodec{secded.NewLine()} }

// DECTED returns the 21-checkbit double-error-correcting codec.
func DECTED() Codec { return bchCodec{bch.NewLine(2)} }

// OLSC returns an Orthogonal-Latin-Square codec correcting t errors per
// line (t=11 is the MS-ECC configuration). It panics when CheckOLSC
// rejects t.
func OLSC(t int) Codec {
	if err := CheckOLSC(t); err != nil {
		panic(err)
	}
	return olscCodec{olsc.NewLine(t)}
}

// CheckOLSC reports whether a line OLSC code of strength t exists here:
// t must be positive and its 2·t·m checkbits must fit a Check
// (MaxCheckBits), which bounds t at 11. Every OLSC strength a scheme name
// or codec name asks for is checked here.
func CheckOLSC(t int) error {
	if t < 1 {
		return fmt.Errorf("ecc: OLSC strength must be positive, got %d", t)
	}
	if t > MaxCheckBits/4 {
		// Every grid is at least 2×2, so 2·t·m ≥ 4t: too wide to size.
		return fmt.Errorf("ecc: olsc-%d needs more than the %d checkbits a Check holds", t, MaxCheckBits)
	}
	if n := 2 * t * olsc.GridSize(bitvec.LineBits, t); n > MaxCheckBits {
		return fmt.Errorf("ecc: olsc-%d needs %d checkbits, more than the %d a Check holds", t, n, MaxCheckBits)
	}
	return nil
}
