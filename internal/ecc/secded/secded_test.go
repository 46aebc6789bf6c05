package secded

import (
	"math/bits"
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

func randomLine(r *xrand.Rand) bitvec.Line {
	var l bitvec.Line
	for w := range l {
		l[w] = r.Uint64()
	}
	return l
}

func TestCheckBitCounts(t *testing.T) {
	cases := []struct{ k, want int }{
		{512, 11}, // the paper's configuration: 11 checkbits for a 64B line
		{64, 8},
		{8, 5},
		{1, 3},
		{4, 4},
		{26, 6},
	}
	for _, c := range cases {
		code := newCode(c.k)
		if got := code.CheckBits(); got != c.want {
			t.Errorf("newCode(%d).CheckBits() = %d, want %d", c.k, got, c.want)
		}
		if code.CodewordBits() != c.k+c.want {
			t.Errorf("CodewordBits inconsistent for k=%d", c.k)
		}
	}
}

func TestPaperCodewordWidth(t *testing.T) {
	// Paper §5.3: "SECDED ECC requires 11 checkbits to protect 523-bits of
	// data (512 bits of data and 11 ECC checkbits)".
	c := newCode(512)
	if c.CodewordBits() != 523 {
		t.Fatalf("codeword = %d bits, want 523", c.CodewordBits())
	}
}

func TestNoErrorRoundTrip(t *testing.T) {
	r := xrand.New(1)
	c := newCode(512)
	for trial := 0; trial < 100; trial++ {
		data := randomVector(r, 512)
		check := c.Encode(data)
		res := c.Decode(data, check)
		if res.Status != OK {
			t.Fatalf("clean decode returned %v", res.Status)
		}
		if res.Syndrome != 0 || res.GlobalParityError {
			t.Fatalf("clean decode produced syndrome %#x gpErr=%v", res.Syndrome, res.GlobalParityError)
		}
	}
}

func TestSingleBitCorrectionAllPositions(t *testing.T) {
	c := newCode(64) // small enough to sweep every data bit
	r := xrand.New(2)
	data := randomVector(r, 64)
	check := c.Encode(data)
	for bit := 0; bit < 64; bit++ {
		corrupted := data.Clone()
		corrupted.FlipBit(bit)
		res := c.Decode(corrupted, check)
		if res.Status != CorrectedData {
			t.Fatalf("bit %d: status %v", bit, res.Status)
		}
		if res.BitFlipped != bit {
			t.Fatalf("bit %d: corrected %d", bit, res.BitFlipped)
		}
		if !slices.Equal(corrupted.Words(), data.Words()) {
			t.Fatalf("bit %d: data not restored", bit)
		}
	}
}

func TestSingleBitCorrection512(t *testing.T) {
	c := newCode(512)
	r := xrand.New(3)
	for trial := 0; trial < 300; trial++ {
		data := randomVector(r, 512)
		check := c.Encode(data)
		bit := r.Intn(512)
		corrupted := data.Clone()
		corrupted.FlipBit(bit)
		res := c.Decode(corrupted, check)
		if res.Status != CorrectedData || res.BitFlipped != bit || !slices.Equal(corrupted.Words(), data.Words()) {
			t.Fatalf("trial %d bit %d: res=%+v", trial, bit, res)
		}
	}
}

func TestDoubleBitDetection(t *testing.T) {
	c := newCode(512)
	r := xrand.New(4)
	for trial := 0; trial < 300; trial++ {
		data := randomVector(r, 512)
		check := c.Encode(data)
		bits := r.Sample(512, 2)
		corrupted := data.Clone()
		corrupted.FlipBit(bits[0])
		corrupted.FlipBit(bits[1])
		res := c.Decode(corrupted, check)
		if res.Status != DetectedUncorrectable {
			t.Fatalf("double error at %v: status %v", bits, res.Status)
		}
		if res.GlobalParityError {
			t.Fatal("double error must leave global parity intact (even flips)")
		}
		if res.Syndrome == 0 {
			t.Fatal("double error must produce non-zero syndrome")
		}
	}
}

func TestCheckbitErrorCorrection(t *testing.T) {
	c := newCode(512)
	r := xrand.New(5)
	data := randomVector(r, 512)
	check := c.Encode(data)
	// Flip each stored Hamming checkbit: data must be reported intact.
	for j := 0; j < c.hamming; j++ {
		bad := check
		bad.Bits ^= 1 << uint(j)
		cpy := data.Clone()
		res := c.Decode(cpy, bad)
		if res.Status != CorrectedCheck {
			t.Fatalf("checkbit %d flip: status %v", j, res.Status)
		}
		if !slices.Equal(cpy.Words(), data.Words()) {
			t.Fatal("checkbit error must not modify data")
		}
	}
	// Flip the stored global parity bit.
	bad := check
	bad.Global ^= 1
	cpy := data.Clone()
	if res := c.Decode(cpy, bad); res.Status != CorrectedCheck {
		t.Fatalf("global parity flip: status %v", res.Status)
	}
}

func TestDataPlusCheckbitDoubleDetected(t *testing.T) {
	// One data bit + one checkbit is still a double error and must be
	// detected, not miscorrected.
	c := newCode(512)
	r := xrand.New(6)
	for trial := 0; trial < 100; trial++ {
		data := randomVector(r, 512)
		check := c.Encode(data)
		corrupted := data.Clone()
		corrupted.FlipBit(r.Intn(512))
		bad := check
		bad.Bits ^= 1 << uint(r.Intn(c.hamming))
		res := c.Decode(corrupted, bad)
		if res.Status != DetectedUncorrectable && res.Status != CorrectedData {
			// data+check double: syndrome = dataPos ^ checkPos, global even
			// → must be DetectedUncorrectable. CorrectedData would be a
			// miscorrection; extended Hamming guarantees it cannot happen.
			t.Fatalf("status %v", res.Status)
		}
		if res.Status == CorrectedData {
			t.Fatal("miscorrected a double (data+check) error")
		}
	}
}

func TestTripleErrorNotSilent(t *testing.T) {
	// Triple errors may alias to a single-bit "correction" (that is the
	// known SECDED limitation the paper leans on segmented parity for),
	// but they must never decode as OK.
	c := newCode(512)
	r := xrand.New(7)
	for trial := 0; trial < 200; trial++ {
		data := randomVector(r, 512)
		check := c.Encode(data)
		corrupted := data.Clone()
		for _, b := range r.Sample(512, 3) {
			corrupted.FlipBit(b)
		}
		res := c.Decode(corrupted, check)
		if res.Status == OK {
			t.Fatal("triple error decoded as OK")
		}
	}
}

func TestSyndromeZeroMeansMatch(t *testing.T) {
	c := newCode(512)
	r := xrand.New(8)
	data := randomVector(r, 512)
	check := c.Encode(data)
	syn, gp := c.syndrome(data, check)
	if syn != 0 || gp {
		t.Fatalf("syndrome=%#x gp=%v on clean data", syn, gp)
	}
}

func TestLineAndVectorAgree(t *testing.T) {
	c := newCode(512)
	r := xrand.New(9)
	for trial := 0; trial < 50; trial++ {
		l := randomLine(r)
		v := bitvec.NewVector(512)
		for i := 0; i < 512; i++ {
			v.SetBit(i, l.Bit(i))
		}
		cv := c.Encode(v)
		cl := c.EncodeLine(l)
		if cv != cl {
			t.Fatalf("Encode and EncodeLine disagree: %+v vs %+v", cv, cl)
		}
	}
}

func TestDecodeLineCorrects(t *testing.T) {
	c := newCode(512)
	r := xrand.New(10)
	for trial := 0; trial < 100; trial++ {
		l := randomLine(r)
		check := c.EncodeLine(l)
		bad := l
		bit := r.Intn(512)
		bad.FlipBit(bit)
		res := c.DecodeLine(&bad, check)
		if res.Status != CorrectedData || bad != l {
			t.Fatalf("DecodeLine failed: %+v", res)
		}
	}
}

func TestEncodeWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Encode with wrong width did not panic")
		}
	}()
	newCode(512).Encode(bitvec.NewVector(64))
}

func TestNewPanicsOnNonPositive(t *testing.T) {
	for _, k := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newCode(%d) did not panic", k)
				}
			}()
			newCode(k)
		}()
	}
}

func TestStatusString(t *testing.T) {
	names := map[Status]string{
		OK:                    "ok",
		CorrectedData:         "corrected-data",
		CorrectedCheck:        "corrected-check",
		DetectedUncorrectable: "detected-uncorrectable",
		Status(42):            "secded.Status(42)",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("Status(%d).String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

func BenchmarkEncodeLine(b *testing.B) {
	c := newCode(512)
	l := randomLine(xrand.New(11))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.EncodeLine(l)
	}
}

func BenchmarkDecodeLineClean(b *testing.B) {
	c := newCode(512)
	l := randomLine(xrand.New(12))
	check := c.EncodeLine(l)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ll := l
		_ = c.DecodeLine(&ll, check)
	}
}

func TestQuickEncodeDecodeRoundTrip(t *testing.T) {
	// testing/quick property: for arbitrary line contents and an
	// arbitrary flipped bit, decode restores the data exactly.
	c := newCode(512)
	f := func(w0, w1, w2, w3, w4, w5, w6, w7 uint64, bit uint16) bool {
		l := bitvec.Line{w0, w1, w2, w3, w4, w5, w6, w7}
		check := c.EncodeLine(l)
		bad := l
		bad.FlipBit(int(bit) % 512)
		res := c.DecodeLine(&bad, check)
		return res.Status == CorrectedData && bad == l
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSyndromeLinearity(t *testing.T) {
	// The Hamming syndrome is linear in the data: flipping data bit i
	// always produces syndrome equal to that bit's codeword position,
	// regardless of the surrounding contents.
	c := newCode(512)
	f := func(w0, w1, w2, w3, w4, w5, w6, w7 uint64, bit uint16) bool {
		l := bitvec.Line{w0, w1, w2, w3, w4, w5, w6, w7}
		check := c.EncodeLine(l)
		i := int(bit) % 512
		bad := l
		bad.FlipBit(i)
		syn, gErr := c.SyndromeLine(bad, check)
		return gErr && int(syn) == c.dataPos[i]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// referenceEncodeLine is the word-parallel encoder the syndrome table
// replaced, kept as a test oracle: checkbit j is the XOR-popcount of the
// line AND a mask of the data bits whose codeword position has bit j set.
func referenceEncodeLine(c *Code, l bitvec.Line) Check {
	var check Check
	for j := 0; j < c.hamming; j++ {
		var mask bitvec.Line
		for i, pos := range c.dataPos {
			if pos&(1<<uint(j)) != 0 {
				mask.SetBit(i, 1)
			}
		}
		ones := 0
		for w := range l {
			ones += bits.OnesCount64(l[w] & mask[w])
		}
		check.Bits |= uint32(ones&1) << uint(j)
	}
	check.Global = uint(l.PopCount()+bits.OnesCount32(check.Bits)) & 1
	return check
}

// TestEncodeLineMatchesReference pins the table-driven EncodeLine and
// SyndromeLine to the mask/popcount oracle and to the bit-serial Encode, on
// random and sparse lines against random stored checkbits.
func TestEncodeLineMatchesReference(t *testing.T) {
	c := NewLine()
	r := xrand.New(14)
	for trial := 0; trial < 200; trial++ {
		l := randomLine(r)
		if trial%2 == 1 {
			// Sparse lines reach the table entries of single bytes.
			l = bitvec.Line{}
			for _, b := range r.Sample(bitvec.LineBits, trial%9) {
				l.FlipBit(b)
			}
		}
		want := referenceEncodeLine(c, l)
		if got := c.EncodeLine(l); got != want {
			t.Fatalf("EncodeLine = %+v, reference %+v", got, want)
		}
		if got := c.Encode(bitvec.VectorOf(l[:], bitvec.LineBits)); got != want {
			t.Fatalf("Encode = %+v, reference %+v", got, want)
		}
		stored := Check{Bits: uint32(r.Uint64()) & (1<<c.hamming - 1), Global: uint(r.Uint64() & 1)}
		syn, gErr := c.SyndromeLine(l, stored)
		wantSyn, wantG := c.syndrome(bitvec.VectorOf(l[:], bitvec.LineBits), stored)
		if syn != wantSyn || gErr != wantG || syn != want.Bits^stored.Bits {
			t.Fatalf("SyndromeLine = (%#x, %v), Syndrome (%#x, %v)", syn, gErr, wantSyn, wantG)
		}
	}
}

// TestNewLineBuiltOnce pins the shared line code: every call returns the
// same instance and builds nothing.
func TestNewLineBuiltOnce(t *testing.T) {
	c := NewLine()
	if allocs := testing.AllocsPerRun(10, func() {
		if NewLine() != c {
			t.Fatal("NewLine returned a second code")
		}
	}); allocs != 0 {
		t.Errorf("NewLine allocates %.0f times after the first call", allocs)
	}
}

// CodewordBits returns the total protected width: data + checkbits.
func (c *Code) CodewordBits() int { return c.k + c.CheckBits() }

// CheckBits returns the total number of checkbits, including the global
// parity bit (11 for k=512).
func (c *Code) CheckBits() int { return c.hamming + 1 }
