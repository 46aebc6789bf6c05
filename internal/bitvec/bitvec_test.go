package bitvec

import (
	"slices"
	"testing"

	"killi/internal/xrand"
)

func TestLineSetGetBit(t *testing.T) {
	var l Line
	for _, i := range []int{0, 1, 63, 64, 65, 127, 255, 511} {
		if l.Bit(i) != 0 {
			t.Fatalf("fresh line has bit %d set", i)
		}
		l.SetBit(i, 1)
		if l.Bit(i) != 1 {
			t.Fatalf("bit %d did not set", i)
		}
		l.SetBit(i, 0)
		if l.Bit(i) != 0 {
			t.Fatalf("bit %d did not clear", i)
		}
	}
}

func TestLineFlipBit(t *testing.T) {
	var l Line
	l.FlipBit(100)
	if l.Bit(100) != 1 {
		t.Fatal("flip did not set")
	}
	l.FlipBit(100)
	if l.Bit(100) != 0 {
		t.Fatal("double flip did not restore")
	}
}

func TestLineBitPanics(t *testing.T) {
	for _, i := range []int{-1, 512, 1 << 20} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Bit(%d) did not panic", i)
				}
			}()
			var l Line
			l.Bit(i)
		}()
	}
}

func TestLinePopCountAndXor(t *testing.T) {
	var a, b Line
	a.SetBit(0, 1)
	a.SetBit(511, 1)
	b.SetBit(0, 1)
	b.SetBit(100, 1)
	x := a.Xor(b)
	if x.PopCount() != 2 {
		t.Fatalf("xor popcount = %d, want 2", x.PopCount())
	}
	if x.Bit(511) != 1 || x.Bit(100) != 1 || x.Bit(0) != 0 {
		t.Fatal("xor bits wrong")
	}
}

func TestLineDiffBits(t *testing.T) {
	var a, b Line
	b.SetBit(3, 1)
	b.SetBit(64, 1)
	b.SetBit(500, 1)
	d := a.DiffBits(b)
	want := []int{3, 64, 500}
	if len(d) != len(want) {
		t.Fatalf("DiffBits = %v, want %v", d, want)
	}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("DiffBits = %v, want %v", d, want)
		}
	}
}

func TestLineIsZero(t *testing.T) {
	var l Line
	if !l.IsZero() {
		t.Fatal("zero line not zero")
	}
	l.SetBit(200, 1)
	if l.IsZero() {
		t.Fatal("non-zero line reported zero")
	}
}

func TestLineString(t *testing.T) {
	var l Line
	l[LineWords-1] = 0xdead
	s := l.String()
	if len(s) != 128 {
		t.Fatalf("hex string length %d, want 128", len(s))
	}
	if s[:16] != "000000000000dead" {
		t.Fatalf("high word rendering = %q", s[:16])
	}
}

func TestVectorBasics(t *testing.T) {
	v := NewVector(523)
	if v.Len() != 523 {
		t.Fatalf("Len = %d", v.Len())
	}
	if !v.IsZero() {
		t.Fatal("fresh vector not zero")
	}
	v.SetBit(522, 1)
	if v.Bit(522) != 1 {
		t.Fatal("bit 522 not set")
	}
	if v.PopCount() != 1 {
		t.Fatalf("popcount = %d", v.PopCount())
	}
	v.FlipBit(522)
	if !v.IsZero() {
		t.Fatal("flip did not clear")
	}
}

func TestVectorBoundsPanics(t *testing.T) {
	v := NewVector(10)
	for _, i := range []int{-1, 10, 64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Bit(%d) on 10-bit vector did not panic", i)
				}
			}()
			v.Bit(i)
		}()
	}
}

func TestVectorXorEqualClone(t *testing.T) {
	a := NewVector(100)
	b := NewVector(100)
	a.SetBit(5, 1)
	b.SetBit(5, 1)
	b.SetBit(99, 1)
	c := a.Clone()
	if !slices.Equal(c.Words(), a.Words()) {
		t.Fatal("clone not equal")
	}
	a.Xor(b)
	if a.Bit(5) != 0 || a.Bit(99) != 1 {
		t.Fatal("xor wrong")
	}
	if c.Bit(5) != 1 {
		t.Fatal("clone aliases original")
	}
}

func TestVectorXorLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Xor with length mismatch did not panic")
		}
	}()
	NewVector(10).Xor(NewVector(11))
}

func TestVectorZeroWidth(t *testing.T) {
	v := NewVector(0)
	if v.Len() != 0 || !v.IsZero() || v.PopCount() != 0 {
		t.Fatal("zero-width vector misbehaves")
	}
}

func TestRandomLineRoundTripProperty(t *testing.T) {
	r := xrand.New(99)
	for trial := 0; trial < 200; trial++ {
		var l Line
		for w := range l {
			l[w] = r.Uint64()
		}
		// SetBit(Bit(i)) must be identity for all words touched.
		orig := l
		for _, i := range []int{0, 17, 63, 64, 300, 511} {
			v := l.Bit(i)
			l.SetBit(i, v)
		}
		if l != orig {
			t.Fatal("SetBit(Bit(i)) changed the line")
		}
	}
}

func TestDiffBitsSymmetricProperty(t *testing.T) {
	r := xrand.New(5)
	for trial := 0; trial < 100; trial++ {
		var a, b Line
		for w := range a {
			a[w] = r.Uint64()
			b[w] = r.Uint64()
		}
		ab := a.DiffBits(b)
		ba := b.DiffBits(a)
		if len(ab) != len(ba) {
			t.Fatal("DiffBits not symmetric in count")
		}
		for i := range ab {
			if ab[i] != ba[i] {
				t.Fatal("DiffBits not symmetric in positions")
			}
		}
		if len(ab) != a.Xor(b).PopCount() {
			t.Fatal("DiffBits count != xor popcount")
		}
	}
}

func TestVectorOfAliases(t *testing.T) {
	var l Line
	l.SetBit(70, 1)
	v := VectorOf(l[:], LineBits)
	if v.Len() != LineBits || v.Bit(70) != 1 {
		t.Fatal("VectorOf does not see the line's bits")
	}
	v.FlipBit(3)
	if l.Bit(3) != 1 {
		t.Fatal("a write through VectorOf did not reach the backing words")
	}
	if w := VectorOf(l[:], 65); len(w.Words()) != 2 {
		t.Fatalf("65-bit view spans %d words, want 2", len(w.Words()))
	}
	for name, fn := range map[string]func(){
		"negative":  func() { VectorOf(l[:], -1) },
		"too short": func() { VectorOf(l[:2], 129) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
	if allocs := testing.AllocsPerRun(100, func() {
		var buf [LineWords]uint64
		VectorOf(buf[:], LineBits).SetBit(5, 1)
	}); allocs != 0 {
		t.Fatalf("VectorOf over a stack buffer allocates %.0f times", allocs)
	}
}

// TestVectorBitsMatchBit checks the word-wide reads and writes against
// the one-bit accessors at every offset and width, including ranges that
// straddle a word boundary, and that SetBits leaves every other bit alone.
func TestVectorBitsMatchBit(t *testing.T) {
	r := xrand.New(8)
	const n = 200
	for trial := 0; trial < 300; trial++ {
		v := NewVector(n)
		for i := 0; i < n; i++ {
			v.SetBit(i, uint(r.Uint64()))
		}
		w := r.Intn(65)
		i := r.Intn(n - w + 1)
		got := v.Bits(i, w)
		for b := 0; b < w; b++ {
			if uint(got>>uint(b))&1 != v.Bit(i+b) {
				t.Fatalf("Bits(%d, %d) bit %d disagrees with Bit", i, w, b)
			}
		}
		x := r.Uint64()
		before := v.Clone()
		v.SetBits(i, w, x)
		for b := 0; b < n; b++ {
			want := before.Bit(b)
			if b >= i && b < i+w {
				want = uint(x>>uint(b-i)) & 1
			}
			if v.Bit(b) != want {
				t.Fatalf("SetBits(%d, %d, %#x): bit %d = %d, want %d", i, w, x, b, v.Bit(b), want)
			}
		}
	}
	for name, fn := range map[string]func(){
		"past end":   func() { NewVector(70).Bits(10, 61) },
		"over word":  func() { NewVector(200).Bits(0, 65) },
		"negative":   func() { NewVector(70).SetBits(-1, 3, 0) },
		"set past n": func() { NewVector(70).SetBits(68, 3, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
