package ecc

import (
	"testing"

	"killi/internal/bitvec"
	"killi/internal/xrand"
)

func randomLine(r *xrand.Rand) bitvec.Line {
	var l bitvec.Line
	for w := range l {
		l[w] = r.Uint64()
	}
	return l
}

func allCodecs() []Codec {
	return []Codec{SECDED(), DECTED(), OLSC(11)}
}

func TestCheckBitCounts(t *testing.T) {
	want := map[string]int{
		"secded":  11,
		"dected":  21,
		"olsc-11": 506,
	}
	for _, c := range allCodecs() {
		if got := c.CheckBits(); got != want[c.Name()] {
			t.Errorf("%s: CheckBits = %d, want %d", c.Name(), got, want[c.Name()])
		}
	}
}

func TestCorrectionStrengths(t *testing.T) {
	want := map[string]int{"secded": 1, "dected": 2, "olsc-11": 11}
	for _, c := range allCodecs() {
		if got := c.CorrectsUpTo(); got != want[c.Name()] {
			t.Errorf("%s: CorrectsUpTo = %d, want %d", c.Name(), got, want[c.Name()])
		}
	}
}

func TestRoundTripClean(t *testing.T) {
	r := xrand.New(1)
	for _, c := range allCodecs() {
		for trial := 0; trial < 5; trial++ {
			l := randomLine(r)
			check := c.Encode(l)
			if check.Bits() == 0 {
				t.Fatalf("%s: empty check", c.Name())
			}
			cpy := l
			if out := c.Decode(&cpy, check); out.Status != OK || cpy != l {
				t.Fatalf("%s: clean decode %v", c.Name(), out.Status)
			}
		}
	}
}

func TestCorrectAtFullStrength(t *testing.T) {
	r := xrand.New(2)
	for _, c := range allCodecs() {
		tcap := c.CorrectsUpTo()
		for trial := 0; trial < 5; trial++ {
			l := randomLine(r)
			check := c.Encode(l)
			bad := l
			for _, b := range r.Sample(bitvec.LineBits, tcap) {
				bad.FlipBit(b)
			}
			out := c.Decode(&bad, check)
			if out.Status != Corrected || bad != l {
				t.Fatalf("%s: %d errors not corrected (%v)", c.Name(), tcap, out.Status)
			}
			if out.DataBitsCorrected != tcap {
				t.Fatalf("%s: corrected %d, want %d", c.Name(), out.DataBitsCorrected, tcap)
			}
		}
	}
}

func TestDetectBeyondStrength(t *testing.T) {
	// One error past the correction capability must never return OK and
	// must not be silently miscorrected for codes that guarantee t+1
	// detection.
	r := xrand.New(3)
	for _, c := range []Codec{SECDED(), DECTED()} {
		e := c.CorrectsUpTo() + 1
		for trial := 0; trial < 20; trial++ {
			l := randomLine(r)
			check := c.Encode(l)
			bad := l
			for _, b := range r.Sample(bitvec.LineBits, e) {
				bad.FlipBit(b)
			}
			out := c.Decode(&bad, check)
			if out.Status == OK {
				t.Fatalf("%s: %d errors decoded as OK", c.Name(), e)
			}
			if out.Status == Corrected && bad != l {
				t.Fatalf("%s: %d errors miscorrected", c.Name(), e)
			}
		}
	}
}

// TestEncodeDecodeAllocFree pins the codecs' hot path: encoding a line and
// correcting up to t errors in it allocates nothing, for every codec the
// protection schemes use.
func TestEncodeDecodeAllocFree(t *testing.T) {
	for _, c := range allCodecs() {
		r := xrand.New(5)
		l := randomLine(r)
		flips := r.Sample(512, c.CorrectsUpTo())
		// Decode takes the line through an interface, so it escapes; like
		// the simulator's read buffer, it lives outside the measured loop.
		bad := new(bitvec.Line)
		allocs := testing.AllocsPerRun(20, func() {
			*bad = l
			for _, b := range flips {
				bad.FlipBit(b)
			}
			if out := c.Decode(bad, c.Encode(l)); out.Status != Corrected || *bad != l {
				t.Fatalf("%s: %+v", c.Name(), out)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Encode+Decode allocate %.0f times", c.Name(), allocs)
		}
	}
}

func TestSingletonsAreReused(t *testing.T) {
	if SECDED() != SECDED() || DECTED() != DECTED() || OLSC(11) != OLSC(11) {
		t.Fatal("codec singletons not reused")
	}
}

func TestStatusString(t *testing.T) {
	if OK.String() != "ok" || Corrected.String() != "corrected" || Detected.String() != "detected" {
		t.Fatal("status names wrong")
	}
	if Status(5).String() != "ecc.Status(5)" {
		t.Fatal("unknown status formatting wrong")
	}
}

func BenchmarkSECDEDEncodeDecode(b *testing.B) {
	c := SECDED()
	l := randomLine(xrand.New(4))
	check := c.Encode(l)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cpy := l
		cpy.FlipBit(100)
		_ = c.Decode(&cpy, check)
	}
}
