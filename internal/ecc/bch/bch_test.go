package bch

import (
	"slices"
	"testing"
	"testing/quick"

	"killi/internal/bitvec"
	"killi/internal/xrand"
)

func randomVector(r *xrand.Rand, n int) *bitvec.Vector {
	v := bitvec.NewVector(n)
	for i := 0; i < n; i++ {
		v.SetBit(i, uint(r.Uint64()&1))
	}
	return v
}

func TestFieldTables(t *testing.T) {
	for m := 3; m <= 13; m++ {
		f := NewField(m)
		if f.N() != (1<<uint(m))-1 {
			t.Fatalf("m=%d: N=%d", m, f.N())
		}
		// α generates the full multiplicative group: all exp values in
		// [0,n) distinct and nonzero.
		seen := make(map[uint32]bool)
		for i := 0; i < f.N(); i++ {
			v := f.Pow(i)
			if v == 0 || seen[v] {
				t.Fatalf("m=%d: exp table degenerate at %d", m, i)
			}
			seen[v] = true
		}
	}
}

func TestFieldAxioms(t *testing.T) {
	f := NewField(10)
	r := xrand.New(1)
	for trial := 0; trial < 500; trial++ {
		a := uint32(r.Intn(f.N())) + 1
		b := uint32(r.Intn(f.N())) + 1
		c := uint32(r.Intn(f.N())) + 1
		if f.Mul(a, b) != f.Mul(b, a) {
			t.Fatal("multiplication not commutative")
		}
		if f.Mul(f.Mul(a, b), c) != f.Mul(a, f.Mul(b, c)) {
			t.Fatal("multiplication not associative")
		}
		// Distributivity over XOR (field addition).
		if f.Mul(a, b^c) != f.Mul(a, b)^f.Mul(a, c) {
			t.Fatal("multiplication not distributive")
		}
		if f.Mul(a, f.Inv(a)) != 1 {
			t.Fatal("a * a^-1 != 1")
		}
		if f.Div(f.Mul(a, b), b) != a {
			t.Fatal("division inconsistent")
		}
	}
	if f.Mul(0, 5) != 0 || f.Mul(7, 0) != 0 {
		t.Fatal("multiplication by zero")
	}
}

func TestFieldPanics(t *testing.T) {
	f := NewField(4)
	for name, fn := range map[string]func(){
		"Inv(0)":       func() { f.Inv(0) },
		"Div(1,0)":     func() { f.Div(1, 0) },
		"Log(0)":       func() { f.Log(0) },
		"NewField(2)":  func() { NewField(2) },
		"NewField(14)": func() { NewField(14) },
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

func TestPowNegative(t *testing.T) {
	f := NewField(10)
	for e := -5; e <= 5; e++ {
		if f.Mul(f.Pow(e), f.Pow(-e)) != 1 {
			t.Fatalf("Pow(%d)*Pow(%d) != 1", e, -e)
		}
	}
}

func TestGeneratorDividesCodewords(t *testing.T) {
	// Every encoded codeword must be divisible by g(x): encoding followed
	// by a zero-syndrome check on clean data verifies this indirectly.
	for _, tt := range []int{1, 2, 3} {
		c := New(10, tt, 512, false)
		r := xrand.New(uint64(tt))
		for trial := 0; trial < 10; trial++ {
			data := randomVector(r, 512)
			check := c.Encode(data)
			for _, s := range c.syndromes(data, check) {
				if s != 0 {
					t.Fatalf("t=%d: clean codeword has nonzero syndrome", tt)
				}
			}
		}
	}
}

func TestPaperCheckbitCounts(t *testing.T) {
	// Paper §5.2: "DECTED ECC for 64B data requires only 21 bits for
	// checkbits". TECQED and 6EC7ED scale as m·t + 1.
	cases := []struct{ t, want int }{
		{2, 21},
		{3, 31},
		{6, 61},
	}
	for _, c := range cases {
		code := NewLine(c.t)
		if got := code.CheckBits(); got != c.want {
			t.Errorf("NewLine(%d).CheckBits() = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestCleanDecode(t *testing.T) {
	c := NewLine(2)
	r := xrand.New(2)
	for trial := 0; trial < 20; trial++ {
		data := randomVector(r, 512)
		check := c.Encode(data)
		if res := c.Decode(data, check); res.Status != OK {
			t.Fatalf("clean decode: %v", res.Status)
		}
	}
}

func TestCorrectUpToT(t *testing.T) {
	for _, tt := range []int{1, 2, 3, 6} {
		c := NewLine(tt)
		r := xrand.New(uint64(100 + tt))
		for e := 1; e <= tt; e++ {
			for trial := 0; trial < 10; trial++ {
				data := randomVector(r, 512)
				check := c.Encode(data)
				orig := data.Clone()
				for _, b := range r.Sample(512, e) {
					data.FlipBit(b)
				}
				res := c.Decode(data, check)
				if res.Status != Corrected {
					t.Fatalf("t=%d e=%d: status %v", tt, e, res.Status)
				}
				if !slices.Equal(data.Words(), orig.Words()) {
					t.Fatalf("t=%d e=%d: data not restored", tt, e)
				}
				if res.DataBitsCorrected != e {
					t.Fatalf("t=%d e=%d: flipped %d bits", tt, e, res.DataBitsCorrected)
				}
			}
		}
	}
}

func TestDetectTPlusOne(t *testing.T) {
	// Extended code: t+1 errors must be detected, never silently
	// miscorrected (the DECTED / TECQED guarantee).
	for _, tt := range []int{2, 3} {
		c := NewLine(tt)
		r := xrand.New(uint64(200 + tt))
		for trial := 0; trial < 40; trial++ {
			data := randomVector(r, 512)
			check := c.Encode(data)
			orig := data.Clone()
			for _, b := range r.Sample(512, tt+1) {
				data.FlipBit(b)
			}
			res := c.Decode(data, check)
			if res.Status == OK {
				t.Fatalf("t=%d: %d errors decoded as OK", tt, tt+1)
			}
			if res.Status == Corrected && !slices.Equal(data.Words(), orig.Words()) {
				t.Fatalf("t=%d: %d errors miscorrected", tt, tt+1)
			}
		}
	}
}

func TestCheckbitErrorsCorrected(t *testing.T) {
	c := NewLine(2)
	r := xrand.New(3)
	for trial := 0; trial < 20; trial++ {
		data := randomVector(r, 512)
		check := c.Encode(data)
		orig := data.Clone()
		// Flip one checkbit and one data bit: both within t=2.
		bad := check
		bad.Bits ^= 1 << uint(r.Intn(c.CheckBits()-1))
		data.FlipBit(r.Intn(512))
		res := c.Decode(data, bad)
		if res.Status != Corrected {
			t.Fatalf("status %v", res.Status)
		}
		if !slices.Equal(data.Words(), orig.Words()) {
			t.Fatal("data not restored")
		}
		if res.CheckBitsFlipped != 1 || res.DataBitsCorrected != 1 {
			t.Fatalf("flip accounting: %+v", res)
		}
	}
}

func TestExtensionBitFlip(t *testing.T) {
	c := NewLine(2)
	r := xrand.New(4)
	data := randomVector(r, 512)
	check := c.Encode(data)
	bad := Check{Bits: check.Bits, Global: check.Global ^ 1}
	res := c.Decode(data, bad)
	if res.Status != Corrected || res.CheckBitsFlipped != 1 {
		t.Fatalf("extension-bit flip: %+v", res)
	}
}

func TestNonExtendedHasNoParityBit(t *testing.T) {
	c := New(10, 2, 512, false)
	if c.CheckBits() != 20 {
		t.Fatalf("non-extended t=2 checkbits = %d, want 20", c.CheckBits())
	}
	if c.extended {
		t.Fatal("non-extended code reports extended")
	}
}

func TestShortCode(t *testing.T) {
	// A tiny code (m=4, t=1, k=5) exercises boundary arithmetic.
	c := New(4, 1, 5, true)
	r := xrand.New(5)
	for trial := 0; trial < 50; trial++ {
		data := randomVector(r, 5)
		check := c.Encode(data)
		orig := data.Clone()
		data.FlipBit(r.Intn(5))
		if res := c.Decode(data, check); res.Status != Corrected || !slices.Equal(data.Words(), orig.Words()) {
			t.Fatalf("short code failed: %+v", res)
		}
	}
}

func TestNewPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"t=0":        func() { New(10, 0, 512, false) },
		"k=0":        func() { New(10, 2, 0, false) },
		"k too big":  func() { New(4, 1, 100, false) },
		"t > MaxT":   func() { New(10, MaxT+1, 512, false) },
		"wide check": func() { New(13, 6, 512, false) },
		"wrong data": func() { NewLine(2).Encode(bitvec.NewVector(100)) },
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

func TestDecodePropertyRandomErrors(t *testing.T) {
	// Property: for random error counts e in [0, t], decode always
	// restores the original data exactly.
	c := NewLine(2)
	r := xrand.New(6)
	for trial := 0; trial < 100; trial++ {
		data := randomVector(r, 512)
		check := c.Encode(data)
		orig := data.Clone()
		e := r.Intn(3)
		for _, b := range r.Sample(512, e) {
			data.FlipBit(b)
		}
		res := c.Decode(data, check)
		if !slices.Equal(data.Words(), orig.Words()) {
			t.Fatalf("e=%d: data corrupted after decode (%v)", e, res.Status)
		}
	}
}

func TestStatusString(t *testing.T) {
	if OK.String() != "ok" || Corrected.String() != "corrected" ||
		DetectedUncorrectable.String() != "detected-uncorrectable" {
		t.Fatal("status names wrong")
	}
	if Status(9).String() != "bch.Status(9)" {
		t.Fatal("unknown status formatting wrong")
	}
}

func BenchmarkEncodeDECTED(b *testing.B) {
	c := NewLine(2)
	data := randomVector(xrand.New(7), 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.Encode(data)
	}
}

func BenchmarkDecodeDECTEDTwoErrors(b *testing.B) {
	c := NewLine(2)
	r := xrand.New(8)
	data := randomVector(r, 512)
	check := c.Encode(data)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := data.Clone()
		d.FlipBit(13)
		d.FlipBit(400)
		_ = c.Decode(d, check)
	}
}

func TestQuickDECTEDRoundTrip(t *testing.T) {
	// testing/quick property: arbitrary data, two arbitrary (distinct)
	// error positions — DECTED always restores the data.
	c := NewLine(2)
	f := func(seed uint64, b1, b2 uint16) bool {
		r := xrand.New(seed)
		data := randomVector(r, 512)
		check := c.Encode(data)
		orig := data.Clone()
		p1, p2 := int(b1)%512, int(b2)%512
		data.FlipBit(p1)
		if p2 != p1 {
			data.FlipBit(p2)
		}
		res := c.Decode(data, check)
		return res.Status == Corrected && slices.Equal(data.Words(), orig.Words())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSyndromesZeroForCodewords(t *testing.T) {
	// Every encoded word has all-zero syndromes, for arbitrary data.
	c := New(10, 3, 512, true)
	f := func(seed uint64) bool {
		data := randomVector(xrand.New(seed), 512)
		check := c.Encode(data)
		for _, s := range c.syndromes(data, check) {
			if s != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// referenceEncode is the bit-serial LFSR division of x^degG·d(x) by g(x),
// data fed MSB-first: the textbook systematic encoder the per-bit
// remainder table must reproduce exactly.
func referenceEncode(c *Code, data *bitvec.Vector) uint64 {
	reg := make([]byte, c.degG)
	for i := c.k - 1; i >= 0; i-- {
		fb := byte(data.Bit(i)) ^ reg[c.degG-1]
		copy(reg[1:], reg[:c.degG-1])
		reg[0] = 0
		if fb == 1 {
			for j := 0; j < c.degG; j++ {
				reg[j] ^= c.gen[j]
			}
		}
	}
	var out uint64
	for j, b := range reg {
		out |= uint64(b) << uint(j)
	}
	return out
}

func TestEncodeMatchesLFSR(t *testing.T) {
	codes := []*Code{NewLine(2), NewLine(3), NewLine(6), New(10, 1, 512, false), New(4, 1, 5, true)}
	r := xrand.New(9)
	for _, c := range codes {
		for trial := 0; trial < 50; trial++ {
			data := randomVector(r, c.k)
			if got, want := c.Encode(data).Bits, referenceEncode(c, data); got != want {
				t.Fatalf("t=%d k=%d: Encode = %#x, LFSR = %#x", c.t, c.k, got, want)
			}
		}
	}
}

func TestCodecAllocFree(t *testing.T) {
	for _, tt := range []int{2, 6} {
		c := NewLine(tt)
		r := xrand.New(10)
		data := randomVector(r, 512)
		check := c.Encode(data)
		bad := data.Clone()
		for _, b := range r.Sample(512, tt) {
			bad.FlipBit(b)
		}
		allocs := testing.AllocsPerRun(50, func() {
			_ = c.Encode(data)
			var buf [bitvec.LineWords]uint64
			copy(buf[:], bad.Words())
			if res := c.Decode(bitvec.VectorOf(buf[:], 512), check); res.Status != Corrected {
				t.Fatalf("t=%d: %v", tt, res.Status)
			}
		})
		if allocs != 0 {
			t.Errorf("t=%d: Encode+Decode allocate %.0f times", tt, allocs)
		}
	}
}

// Inv returns the multiplicative inverse of a. It panics on a == 0.
func (f *Field) Inv(a uint32) uint32 {
	if a == 0 {
		panic("bch: inverse of zero")
	}
	return f.exp[f.n-f.log[a]]
}
