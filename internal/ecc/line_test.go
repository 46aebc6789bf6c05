package ecc

import (
	"fmt"
	"testing"

	"killi/internal/bitvec"
	"killi/internal/ecc/bch"
	"killi/internal/ecc/olsc"
	"killi/internal/ecc/secded"
	"killi/internal/xrand"
)

func randomLine(r *xrand.Rand) bitvec.Line {
	var l bitvec.Line
	for w := range l {
		l[w] = r.Uint64()
	}
	return l
}

// lineCode is one code under test: its read function, its correction
// strength, and its full decoder as the reference for the read.
type lineCode struct {
	name string
	t    int
	read func(data *bitvec.Line, payload bitvec.Line, decode bool) Reading
	// ref decodes read against payload's checkbits with the code's own
	// decoder and returns the reading it implies and the line delivered:
	// the corrected line on a correction, the line as read otherwise.
	// touched reports that the decoder changed its input on a line it
	// then found uncorrectable.
	ref func(read, payload bitvec.Line) (want Reading, delivered bitvec.Line, touched bool)
}

func olscCode(t int) lineCode {
	c := olsc.NewLine(t)
	return lineCode{
		name: fmt.Sprintf("olsc-%d", t), t: t,
		read: func(data *bitvec.Line, payload bitvec.Line, decode bool) Reading {
			return ReadOLSC(c, data, payload, decode)
		},
		ref: func(read, payload bitvec.Line) (Reading, bitvec.Line, bool) {
			d := read
			switch c.Decode(bitvec.VectorOf(d[:], bitvec.LineBits), c.Encode(bitvec.VectorOf(payload[:], bitvec.LineBits))).Status {
			case olsc.OK:
				return NoError, read, false
			case olsc.Corrected:
				return Corrected, d, false
			}
			return Uncorrectable, read, d != read
		},
	}
}

var lineCodes = []lineCode{
	{
		name: "secded", t: 1, read: ReadSECDED,
		ref: func(read, payload bitvec.Line) (Reading, bitvec.Line, bool) {
			d := read
			res := secded.NewLine().DecodeLine(&d, secded.NewLine().EncodeLine(payload))
			switch {
			case res.Status == secded.OK:
				return NoError, d, false
			case res.Status == secded.CorrectedCheck && res.Syndrome == 0:
				return GlobalFlip, d, false
			case res.Status != secded.DetectedUncorrectable:
				return Corrected, d, false
			case !res.GlobalParityError:
				return EvenDetected, read, d != read
			}
			return Uncorrectable, read, d != read
		},
	},
	{
		name: "dected", t: 2, read: ReadDECTED,
		ref: func(read, payload bitvec.Line) (Reading, bitvec.Line, bool) {
			c := bch.NewLine(2)
			d := read
			switch c.Decode(bitvec.VectorOf(d[:], bitvec.LineBits), c.Encode(bitvec.VectorOf(payload[:], bitvec.LineBits))).Status {
			case bch.OK:
				return NoError, read, false
			case bch.Corrected:
				return Corrected, d, false
			}
			return Uncorrectable, read, d != read
		},
	},
	olscCode(2),
	olscCode(11),
}

// TestReadMatchesFullDecoder pins each code's line read against the
// code's full decoder (secded.DecodeLine, the vector Decode of bch and
// olsc) on random lines with 0 to t+2 flipped bits, plus three data bits
// whose SECDED syndromes cancel. Both must give the same reading and
// deliver the same line: the corrected line on a correction, the line as
// read on anything else, even where the decoder flipped bits before it
// found the line uncorrectable. Without decode, the read must leave the
// line as read and give the same reading — except SECDED, where the
// single-error signature alone reads Corrected.
func TestReadMatchesFullDecoder(t *testing.T) {
	for _, c := range lineCodes {
		t.Run(c.name, func(t *testing.T) {
			r := xrand.New(7)
			seen := map[Reading]int{}
			touched := 0
			check := func(payload bitvec.Line, flips []int) {
				read := payload
				for _, b := range flips {
					read.FlipBit(b)
				}
				want, delivered, tch := c.ref(read, payload)
				if tch {
					touched++
				}
				got := read
				if r := c.read(&got, payload, true); r != want || got != delivered {
					t.Fatalf("flips %v: read %d delivering the right line %v; decoder says %d",
						flips, r, got == delivered, want)
				}
				seen[want]++
				if c.name == "secded" && want == Uncorrectable {
					want = Corrected // the syndrome points outside the codeword
				}
				got = read
				if r := c.read(&got, payload, false); r != want || got != read {
					t.Fatalf("flips %v without decode: read %d, line as read %v; want %d",
						flips, r, got == read, want)
				}
			}
			for trial := 0; trial < 3000; trial++ {
				check(randomLine(r), r.Sample(bitvec.LineBits, r.Intn(c.t+3)))
			}
			// Data bits 0, 1 and 2 sit at Hamming positions 3, 5 and 6.
			check(randomLine(r), []int{0, 1, 2})
			if c.name == "secded" {
				for _, want := range []Reading{NoError, Corrected, EvenDetected, Uncorrectable, GlobalFlip} {
					if seen[want] == 0 {
						t.Errorf("no pattern read as %d: %v", want, seen)
					}
				}
			} else if seen[NoError] == 0 || seen[Corrected] == 0 || seen[Uncorrectable] == 0 {
				t.Errorf("readings seen %v: want NoError, Corrected and Uncorrectable", seen)
			}
			if c.name == "olsc-2" && touched == 0 {
				t.Error("no uncorrectable pattern was half-corrected by majority logic: the copy rule went untested")
			}
		})
	}
}

func TestRoundTripClean(t *testing.T) {
	r := xrand.New(1)
	for _, c := range lineCodes {
		for trial := 0; trial < 5; trial++ {
			l := randomLine(r)
			cpy := l
			if got := c.read(&cpy, l, true); got != NoError || cpy != l {
				t.Fatalf("%s: clean read %d", c.name, got)
			}
		}
	}
}

func TestCorrectAtFullStrength(t *testing.T) {
	r := xrand.New(2)
	for _, c := range lineCodes {
		for trial := 0; trial < 5; trial++ {
			l := randomLine(r)
			bad := l
			for _, b := range r.Sample(bitvec.LineBits, c.t) {
				bad.FlipBit(b)
			}
			if got := c.read(&bad, l, true); got != Corrected || bad != l {
				t.Fatalf("%s: %d errors not corrected (%d)", c.name, c.t, got)
			}
		}
	}
}

func TestDetectBeyondStrength(t *testing.T) {
	// One error past the correction capability must never read NoError
	// and must not be silently miscorrected for codes that guarantee t+1
	// detection.
	r := xrand.New(3)
	for _, c := range lineCodes[:2] {
		for trial := 0; trial < 20; trial++ {
			l := randomLine(r)
			bad := l
			for _, b := range r.Sample(bitvec.LineBits, c.t+1) {
				bad.FlipBit(b)
			}
			got := c.read(&bad, l, true)
			if got == NoError {
				t.Fatalf("%s: %d errors read as NoError", c.name, c.t+1)
			}
			if got == Corrected && bad != l {
				t.Fatalf("%s: %d errors miscorrected", c.name, c.t+1)
			}
		}
	}
}

// TestEncodeDecodeAllocFree pins the reads' hot path: deriving a line's
// checkbits and correcting up to t errors in it allocates nothing, for
// every code the protection schemes use.
func TestEncodeDecodeAllocFree(t *testing.T) {
	for _, c := range lineCodes {
		r := xrand.New(5)
		l := randomLine(r)
		flips := r.Sample(bitvec.LineBits, c.t)
		bad := new(bitvec.Line)
		allocs := testing.AllocsPerRun(20, func() {
			*bad = l
			for _, b := range flips {
				bad.FlipBit(b)
			}
			if got := c.read(bad, l, true); got != Corrected || *bad != l {
				t.Fatalf("%s: %d", c.name, got)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: a read allocates %.0f times", c.name, allocs)
		}
	}
}

func BenchmarkReadSECDED(b *testing.B) {
	l := randomLine(xrand.New(4))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cpy := l
		cpy.FlipBit(100)
		_ = ReadSECDED(&cpy, l, true)
	}
}
