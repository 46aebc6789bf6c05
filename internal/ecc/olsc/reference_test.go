package olsc

import (
	"math/bits"
	"slices"
	"testing"

	"killi/internal/bitvec"
	"killi/internal/xrand"
)

// reference is the textbook OLS codec the row kernel replaced, kept as a
// test oracle: every parity group is a member list and a word-parallel
// mask, each checkbit the XOR-popcount of data AND its group's mask, and
// each data bit's majority vote a walk over its 2t groups.
type reference struct {
	k, t, m int
	// groups[f][g] lists the data-bit indexes (only those < k) in group g
	// of family f.
	groups [][][]int
	// bitGroups[i] lists the (family, group) check indexes covering data
	// bit i, flattened as f*m+g.
	bitGroups [][]int
	// groupMask[f*m+g] is the word-parallel membership mask of a group.
	groupMask [][]uint64
	words     int
}

func newReference(k, t int) *reference {
	m := gridSize(k, t)
	c := &reference{k: k, t: t, m: m, words: (k + 63) / 64}
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
	c.groupMask = make([][]uint64, 2*t*m)
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

func (c *reference) maskParity(words, mask []uint64) uint {
	ones := 0
	for w := 0; w < c.words; w++ {
		ones += bits.OnesCount64(words[w] & mask[w])
	}
	return uint(ones) & 1
}

func (c *reference) encode(data *bitvec.Vector) *bitvec.Vector {
	check := bitvec.NewVector(len(c.groupMask))
	for ck, mask := range c.groupMask {
		check.SetBit(ck, c.maskParity(data.Words(), mask))
	}
	return check
}

func (c *reference) failedGroups(failed []bool, data, check *bitvec.Vector) int {
	n := 0
	for ck, mask := range c.groupMask {
		failed[ck] = c.maskParity(data.Words(), mask) != check.Bit(ck)
		if failed[ck] {
			n++
		}
	}
	return n
}

func (c *reference) decode(data, check *bitvec.Vector) Result {
	failed := make([]bool, len(c.groupMask))
	if c.failedGroups(failed, data, check) == 0 {
		return Result{Status: OK}
	}
	res := Result{}
	for idx := 0; idx < c.k; idx++ {
		votes := 0
		for _, ck := range c.bitGroups[idx] {
			if failed[ck] {
				votes++
			}
		}
		if votes > c.t {
			data.FlipBit(idx)
			res.DataBitsCorrected++
		}
	}
	remaining := c.failedGroups(failed, data, check)
	res.CheckGroupErrors = remaining
	switch {
	case remaining == 0, res.DataBitsCorrected+remaining <= c.t:
		res.Status = Corrected
	default:
		res.Status = DetectedUncorrectable
	}
	return res
}

// matchesReference encodes data under c and the reference, then flips
// errs (data bits below k, checkbits from k on) and decodes under both,
// reporting the first disagreement.
func matchesReference(t *testing.T, c *Code, ref *reference, data *bitvec.Vector, errs []int) {
	t.Helper()
	check := c.Encode(data)
	if want := ref.encode(data); !slices.Equal(check.Words(), want.Words()) {
		t.Fatalf("k=%d t=%d: Encode disagrees with the reference", c.k, c.t)
	}
	d, ck := data.Clone(), check.Clone()
	for _, e := range errs {
		if e < c.k {
			d.FlipBit(e)
		} else {
			ck.FlipBit(e - c.k)
		}
	}
	rd := d.Clone()
	got, want := c.Decode(d, ck), ref.decode(rd, ck)
	if got != want {
		t.Fatalf("k=%d t=%d errors %v: Decode = %+v, reference %+v", c.k, c.t, errs, got, want)
	}
	if !slices.Equal(d.Words(), rd.Words()) {
		t.Fatalf("k=%d t=%d errors %v: Decode left different data than the reference", c.k, c.t, errs)
	}
}

// TestOLSCMatchesReference runs the row kernel against the reference on
// random data at every line strength and on the small and shortened codes,
// with 0 to 2t+2 errors spread over data and checkbits — past t the
// decoders must still agree on every miscorrection.
func TestOLSCMatchesReference(t *testing.T) {
	type shape struct{ k, t int }
	shapes := []shape{{9, 1}, {500, 3}, {30, 2}, {64, 4}, {100, 1}}
	for tt := 1; tt <= 11; tt++ {
		shapes = append(shapes, shape{bitvec.LineBits, tt})
	}
	r := xrand.New(21)
	for _, s := range shapes {
		c, ref := New(s.k, s.t), newReference(s.k, s.t)
		for e := 0; e <= 2*s.t+2; e++ {
			for trial := 0; trial < 8; trial++ {
				data := randomVector(r, s.k)
				n := min(e, s.k+c.CheckBits())
				errs := r.Sample(s.k+c.CheckBits(), n)
				if trial%2 == 0 {
					// Data errors only: the common case in a cache line.
					errs = r.Sample(s.k, min(e, s.k))
				}
				matchesReference(t, c, ref, data, errs)
			}
		}
	}
}

// FuzzOLSCMatchesReference drives the row kernel and the reference with
// arbitrary data and error positions at a fuzzed strength.
func FuzzOLSCMatchesReference(f *testing.F) {
	f.Add(uint8(2), uint64(1), uint64(2), []byte{0, 1, 17})
	f.Add(uint8(11), uint64(3), ^uint64(0), []byte{5, 5, 200, 7})
	f.Add(uint8(1), uint64(0), uint64(0), []byte{})
	refs := map[int]*reference{}
	f.Fuzz(func(t *testing.T, strength uint8, seed, fill uint64, errs []byte) {
		tt := int(strength)%11 + 1
		c := NewLine(tt)
		ref, ok := refs[tt]
		if !ok {
			ref = newReference(bitvec.LineBits, tt)
			refs[tt] = ref
		}
		r := xrand.New(seed)
		data := bitvec.NewVector(bitvec.LineBits)
		for i := 0; i < bitvec.LineBits; i += 64 {
			data.SetBits(i, 64, r.Uint64()&fill)
		}
		n := bitvec.LineBits + c.CheckBits()
		var pos []int
		for i := 0; i+1 < len(errs); i += 2 {
			pos = append(pos, (int(errs[i])<<8|int(errs[i+1]))%n)
		}
		matchesReference(t, c, ref, data, pos)
	})
}

func benchLines(b *testing.B, tt, errs int, decode bool) {
	c := NewLine(tt)
	r := xrand.New(6)
	data := randomVector(r, bitvec.LineBits)
	var ck [bitvec.LineWords]uint64
	check := bitvec.VectorOf(ck[:], c.CheckBits())
	c.EncodeTo(check, data)
	bad := data.Clone()
	for _, i := range r.Sample(bitvec.LineBits, errs) {
		bad.FlipBit(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !decode {
			c.EncodeTo(check, data)
			continue
		}
		var d [bitvec.LineWords]uint64
		copy(d[:], bad.Words())
		_ = c.Decode(bitvec.VectorOf(d[:], bitvec.LineBits), check)
	}
}

func BenchmarkEncodeLineT2(b *testing.B)  { benchLines(b, 2, 0, false) }
func BenchmarkEncodeLineT11(b *testing.B) { benchLines(b, 11, 0, false) }

// The Decode benchmarks read a clean line and one with t errors.
func BenchmarkDecodeLineT2(b *testing.B)        { benchLines(b, 2, 0, true) }
func BenchmarkDecodeLineT2Errors(b *testing.B)  { benchLines(b, 2, 2, true) }
func BenchmarkDecodeLineT11(b *testing.B)       { benchLines(b, 11, 0, true) }
func BenchmarkDecodeLineT11Errors(b *testing.B) { benchLines(b, 11, 11, true) }
