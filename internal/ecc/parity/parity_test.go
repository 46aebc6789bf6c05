package parity

import (
	"testing"
	"testing/quick"

	"killi/internal/bitvec"
	"killi/internal/xrand"
)

// naive computes segment parities bit by bit, as the hardware definition
// states, for cross-checking the folded implementation.
func naive(l bitvec.Line, segments int) uint64 {
	var p uint64
	for i := 0; i < bitvec.LineBits; i++ {
		if l.Bit(i) == 1 {
			p ^= 1 << uint(i%segments)
		}
	}
	return p
}

func randomLine(r *xrand.Rand) bitvec.Line {
	var l bitvec.Line
	for w := range l {
		l[w] = r.Uint64()
	}
	return l
}

func TestGenerateMatchesNaive(t *testing.T) {
	r := xrand.New(1)
	for _, segs := range []int{1, 2, 4, 8, 16, 32, 64} {
		s := NewInterleaved(segs)
		for trial := 0; trial < 50; trial++ {
			l := randomLine(r)
			if got, want := s.Generate(l), naive(l, segs); got != want {
				t.Fatalf("segments=%d: Generate=%#x naive=%#x", segs, got, want)
			}
		}
	}
}

func TestGenerateZeroLine(t *testing.T) {
	var l bitvec.Line
	for _, segs := range []int{4, 16} {
		if p := NewInterleaved(segs).Generate(l); p != 0 {
			t.Fatalf("zero line parity = %#x", p)
		}
	}
}

func TestSingleBitFlipHitsExactlyOneSegment(t *testing.T) {
	r := xrand.New(2)
	s := NewInterleaved(16)
	for trial := 0; trial < 200; trial++ {
		l := randomLine(r)
		stored := s.Generate(l)
		bit := r.Intn(bitvec.LineBits)
		l.FlipBit(bit)
		mask, n := s.Check(l, stored)
		if n != 1 {
			t.Fatalf("single flip produced %d mismatches", n)
		}
		if mask != 1<<uint(s.SegmentOf(bit)) {
			t.Fatalf("flip of bit %d: mask=%#x, want segment %d", bit, mask, s.SegmentOf(bit))
		}
	}
}

func TestTwoFlipsSameSegmentUndetected(t *testing.T) {
	s := NewInterleaved(16)
	var l bitvec.Line
	stored := s.Generate(l)
	// Bits 0 and 16 share segment 0 in the interleaved layout.
	l.FlipBit(0)
	l.FlipBit(16)
	if _, n := s.Check(l, stored); n != 0 {
		t.Fatalf("two flips in one segment detected (%d mismatches); interleaving broken", n)
	}
}

func TestTwoFlipsDifferentSegmentsDetected(t *testing.T) {
	s := NewInterleaved(16)
	var l bitvec.Line
	stored := s.Generate(l)
	l.FlipBit(0)
	l.FlipBit(1)
	if _, n := s.Check(l, stored); n != 2 {
		t.Fatalf("flips in two segments gave %d mismatches, want 2", n)
	}
}

func TestAdjacentMultiBitSoftErrorDetected(t *testing.T) {
	// The motivation for interleaving: up to 16 physically adjacent bit
	// flips all land in distinct segments and are all visible.
	s := NewInterleaved(16)
	r := xrand.New(3)
	for burst := 2; burst <= 16; burst++ {
		l := randomLine(r)
		stored := s.Generate(l)
		start := r.Intn(bitvec.LineBits - burst)
		for b := 0; b < burst; b++ {
			l.FlipBit(start + b)
		}
		if _, n := s.Check(l, stored); n != burst {
			t.Fatalf("adjacent burst of %d flips: %d segment mismatches", burst, n)
		}
	}
}

func TestSegmentOf(t *testing.T) {
	s := NewInterleaved(16)
	if s.SegmentOf(0) != 0 || s.SegmentOf(15) != 15 || s.SegmentOf(16) != 0 || s.SegmentOf(511) != 15 {
		t.Fatal("SegmentOf wrong for interleaved layout")
	}
}

func TestNewInterleavedPanics(t *testing.T) {
	for _, bad := range []int{0, -1, 3, 5, 12, 65, 128} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewInterleaved(%d) did not panic", bad)
				}
			}()
			NewInterleaved(bad)
		}()
	}
}

func TestGlobalMatchesPopCount(t *testing.T) {
	r := xrand.New(4)
	for trial := 0; trial < 100; trial++ {
		l := randomLine(r)
		if got, want := Global(l), uint(l.PopCount())&1; got != want {
			t.Fatalf("Global=%d want %d", got, want)
		}
	}
}

func TestFoldMatchesDirectGeneration(t *testing.T) {
	r := xrand.New(5)
	s16 := NewInterleaved(16)
	s4 := NewInterleaved(4)
	for trial := 0; trial < 200; trial++ {
		l := randomLine(r)
		if got, want := Fold(s16.Generate(l)), s4.Generate(l); got != want {
			t.Fatalf("Fold(p16)=%#x, direct p4=%#x", got, want)
		}
	}
}

func TestCheckMasksHighBits(t *testing.T) {
	s := NewInterleaved(4)
	var l bitvec.Line
	// Stored word polluted above the segment width must not create
	// phantom mismatches.
	if _, n := s.Check(l, 0xfff0); n != 0 {
		t.Fatalf("high garbage bits caused %d mismatches", n)
	}
}

func TestParityEvenOddProperty(t *testing.T) {
	// Flipping any odd number of bits within one segment flips that
	// segment's parity; an even number restores it.
	r := xrand.New(6)
	s := NewInterleaved(16)
	for trial := 0; trial < 100; trial++ {
		l := randomLine(r)
		stored := s.Generate(l)
		seg := r.Intn(16)
		flips := 1 + r.Intn(31)
		for f := 0; f < flips; f++ {
			// Bit positions in segment seg are seg, seg+16, seg+32, ...
			slot := r.Intn(bitvec.LineBits / 16)
			l.FlipBit(seg + 16*slot)
		}
		_, n := s.Check(l, stored)
		// We may have flipped the same position multiple times; recompute
		// expected parity change from actual diff popcount.
		// n is 1 if the net number of changed bits in the segment is odd.
		if n > 1 {
			t.Fatalf("flips confined to one segment changed %d segments", n)
		}
	}
}

func BenchmarkGenerate16(b *testing.B) {
	s := NewInterleaved(16)
	l := randomLine(xrand.New(7))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Generate(l)
	}
}

func TestQuickParityLinearity(t *testing.T) {
	// Parity is linear: P(a XOR b) == P(a) XOR P(b) for every segment
	// count. testing/quick drives the line contents.
	for _, segs := range []int{4, 16} {
		s := NewInterleaved(segs)
		f := func(a0, a1, a2, a3, a4, a5, a6, a7, b0, b1, b2, b3, b4, b5, b6, b7 uint64) bool {
			a := bitvec.Line{a0, a1, a2, a3, a4, a5, a6, a7}
			b := bitvec.Line{b0, b1, b2, b3, b4, b5, b6, b7}
			return s.Generate(a.Xor(b)) == (s.Generate(a) ^ s.Generate(b))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("segments=%d: %v", segs, err)
		}
	}
}

func TestQuickGlobalIsParityOfSegments(t *testing.T) {
	// The global parity equals the XOR of all 16 segment parities.
	s := NewInterleaved(16)
	f := func(w0, w1, w2, w3, w4, w5, w6, w7 uint64) bool {
		l := bitvec.Line{w0, w1, w2, w3, w4, w5, w6, w7}
		p := s.Generate(l)
		var x uint64
		for i := 0; i < 16; i++ {
			x ^= (p >> uint(i)) & 1
		}
		return uint(x) == Global(l)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// SegmentOf returns the segment that owns bit i of the line: the
// interleaved layout Generate and Check implement.
func (s Scheme) SegmentOf(i int) int { return i % s.segments }
