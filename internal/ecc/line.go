// Package ecc reads cache lines through the line codes in its
// subpackages (parity, secded, bch, olsc): one decode per code, shared by
// every protection scheme that corrects with it.
//
// A scheme stores no checkbits. They are a pure function of the payload
// the controller wrote, which the data array keeps, so each read function
// derives them from that payload and decodes the line as read against
// them. Whatever rule a code's decoder follows when it miscorrects lives
// here once, for the PerLine and FLAIR baselines and for Killi alike.
package ecc

import (
	"killi/internal/bitvec"
	"killi/internal/ecc/bch"
	"killi/internal/ecc/olsc"
	"killi/internal/ecc/secded"
)

// Reading is a line code's verdict on a line as read, against the
// checkbits of the payload it was written with.
type Reading uint8

const (
	// NoError: the code sees no error.
	NoError Reading = iota
	// Corrected: an error the code corrects.
	Corrected
	// EvenDetected: SECDED's nonzero syndrome with even global parity, an
	// even error count, detected.
	EvenDetected
	// Uncorrectable: any other detected, uncorrectable pattern.
	Uncorrectable
	// GlobalFlip: SECDED's zero syndrome with odd global parity. The
	// decoder blames its own global parity bit and leaves the data as
	// read; since checkbits derived from the payload are never wrong, the
	// data holds an odd error count of at least three. The PerLine
	// baselines take the decoder at its word; Killi's Table 2 disables the
	// line.
	GlobalFlip
)

// ReadSECDED reads data through the line SECDED code (11 checkbits). With
// decode set, a correctable error is corrected in place; without it the
// single-error signature alone reads Corrected and data is left as read.
func ReadSECDED(data *bitvec.Line, payload bitvec.Line, decode bool) Reading {
	c := secded.NewLine()
	check := c.EncodeLine(payload)
	syn, gErr := c.SyndromeLine(*data, check)
	switch {
	case syn == 0 && !gErr:
		return NoError
	case !gErr:
		return EvenDetected
	case syn == 0:
		return GlobalFlip
	case !decode:
		return Corrected
	}
	// The syndrome may point outside the codeword: three or more errors
	// aliasing, which DecodeLine reports without touching the line.
	if st := c.DecodeLine(data, check).Status; st == secded.CorrectedData || st == secded.CorrectedCheck {
		return Corrected
	}
	return Uncorrectable
}

// ReadDECTED reads data through the line DECTED code (the t=2 extended
// BCH code, 21 checkbits). With decode set, a correction is written back
// to data; without it data is left as read.
func ReadDECTED(data *bitvec.Line, payload bitvec.Line, decode bool) Reading {
	c := bch.NewLine(2)
	check := c.Encode(bitvec.VectorOf(payload[:], bitvec.LineBits))
	d := *data
	switch c.Decode(bitvec.VectorOf(d[:], bitvec.LineBits), check).Status {
	case bch.OK:
		return NoError
	case bch.Corrected:
		if decode {
			*data = d
		}
		return Corrected
	}
	return Uncorrectable
}

// ReadOLSC reads data through the line OLSC code c. Majority logic flips
// bits before it knows the line is correctable, so it decodes a copy: an
// uncorrectable line is left as read, and with decode set a correction is
// written back to data.
func ReadOLSC(c *olsc.Code, data *bitvec.Line, payload bitvec.Line, decode bool) Reading {
	var words [bitvec.LineWords]uint64
	check := bitvec.VectorOf(words[:], c.CheckBits())
	c.EncodeTo(check, bitvec.VectorOf(payload[:], bitvec.LineBits))
	d := *data
	switch c.Decode(bitvec.VectorOf(d[:], bitvec.LineBits), check).Status {
	case olsc.OK:
		return NoError
	case olsc.Corrected:
		if decode {
			*data = d
		}
		return Corrected
	}
	return Uncorrectable
}
