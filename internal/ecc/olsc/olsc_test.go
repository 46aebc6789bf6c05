package olsc

import (
	"slices"
	"sync"
	"testing"

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

func TestMSECCConfiguration(t *testing.T) {
	// MS-ECC: correct up to 11 errors in a 64B line, costing about half
	// the line in checkbits.
	c := NewLine(11)
	if c.m != 23 {
		t.Fatalf("m = %d, want 23 (smallest prime with m²≥512, m+1≥22)", c.m)
	}
	if c.CheckBits() != 506 {
		t.Fatalf("checkbits = %d, want 506", c.CheckBits())
	}
	if NewLine(11) != c {
		t.Fatal("NewLine(11) built a second code")
	}
}

func TestOrthogonality(t *testing.T) {
	// Any two groups from different families must share at most one data
	// bit — the property that makes one-step majority decoding sound.
	c := newReference(512, 4)
	for f1 := range c.groups {
		for f2 := f1 + 1; f2 < len(c.groups); f2++ {
			for _, g1 := range c.groups[f1] {
				for _, g2 := range c.groups[f2] {
					shared := 0
					inG2 := make(map[int]bool, len(g2))
					for _, idx := range g2 {
						inG2[idx] = true
					}
					for _, idx := range g1 {
						if inG2[idx] {
							shared++
						}
					}
					if shared > 1 {
						t.Fatalf("families %d,%d share %d bits in one group pair", f1, f2, shared)
					}
				}
			}
		}
	}
}

func TestEachBitHas2TGroups(t *testing.T) {
	c := newReference(512, 11)
	for idx, groups := range c.bitGroups {
		if len(groups) != 2*c.t {
			t.Fatalf("bit %d covered by %d groups, want %d", idx, len(groups), 2*c.t)
		}
	}
}

func TestCleanDecode(t *testing.T) {
	c := NewLine(11)
	r := xrand.New(1)
	for trial := 0; trial < 20; trial++ {
		data := randomVector(r, 512)
		check := c.Encode(data)
		if res := c.Decode(data, check); res.Status != OK {
			t.Fatalf("clean decode: %v", res.Status)
		}
	}
}

func TestCorrectUpToT(t *testing.T) {
	for _, tt := range []int{1, 2, 4, 11} {
		c := NewLine(tt)
		r := xrand.New(uint64(tt))
		for e := 1; e <= tt; e++ {
			for trial := 0; trial < 5; trial++ {
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
			}
		}
	}
}

func TestCheckbitErrorsTolerated(t *testing.T) {
	c := NewLine(11)
	r := xrand.New(2)
	for trial := 0; trial < 20; trial++ {
		data := randomVector(r, 512)
		check := c.Encode(data)
		orig := data.Clone()
		// A few checkbit flips plus a few data flips, total ≤ t.
		for _, b := range r.Sample(check.Len(), 3) {
			check.FlipBit(b)
		}
		for _, b := range r.Sample(512, 5) {
			data.FlipBit(b)
		}
		res := c.Decode(data, check)
		if res.Status != Corrected {
			t.Fatalf("status %v", res.Status)
		}
		if !slices.Equal(data.Words(), orig.Words()) {
			t.Fatal("data not restored")
		}
		if res.CheckGroupErrors != 3 {
			t.Fatalf("check group errors = %d, want 3", res.CheckGroupErrors)
		}
	}
}

func TestMassiveErrorsDetected(t *testing.T) {
	// Far more errors than t must not decode as OK. (They may in rare
	// patterns miscorrect — that is inherent to any bounded-distance
	// decoder — but the common case is detection.)
	c := NewLine(4)
	r := xrand.New(3)
	detected := 0
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		data := randomVector(r, 512)
		check := c.Encode(data)
		for _, b := range r.Sample(512, 40) {
			data.FlipBit(b)
		}
		res := c.Decode(data, check)
		if res.Status == OK {
			t.Fatal("40 errors decoded as OK")
		}
		if res.Status == DetectedUncorrectable {
			detected++
		}
	}
	if detected < trials*9/10 {
		t.Fatalf("only %d/%d massive-error patterns detected", detected, trials)
	}
}

func TestSmallCode(t *testing.T) {
	c := New(9, 1) // m=3 grid, single correction
	if c.m != 3 || c.CheckBits() != 6 {
		t.Fatalf("m=%d check=%d", c.m, c.CheckBits())
	}
	r := xrand.New(4)
	for trial := 0; trial < 50; trial++ {
		data := randomVector(r, 9)
		check := c.Encode(data)
		orig := data.Clone()
		data.FlipBit(r.Intn(9))
		if res := c.Decode(data, check); res.Status != Corrected || !slices.Equal(data.Words(), orig.Words()) {
			t.Fatalf("small code: %+v", res)
		}
	}
}

func TestNonSquareK(t *testing.T) {
	// k=512 on a 23×23 grid leaves 17 unused cells; they must be
	// handled as implicit zeros.
	c := New(500, 3)
	r := xrand.New(5)
	data := randomVector(r, 500)
	check := c.Encode(data)
	orig := data.Clone()
	for _, b := range r.Sample(500, 3) {
		data.FlipBit(b)
	}
	if res := c.Decode(data, check); res.Status != Corrected || !slices.Equal(data.Words(), orig.Words()) {
		t.Fatalf("shortened code: %+v", res)
	}
}

func TestPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"k=0":         func() { New(0, 1) },
		"grid ≥ 64":   func() { New(512, 40) }, // m = 79
		"line t=32":   func() { NewLine(32) },  // m = 67
		"huge t":      func() { New(512, 1<<60) },
		"huge k":      func() { New(1<<60, 1) },
		"t=0":         func() { New(9, 0) },
		"enc width":   func() { New(9, 1).Encode(bitvec.NewVector(4)) },
		"dec width":   func() { New(9, 1).Decode(bitvec.NewVector(4), bitvec.NewVector(6)) },
		"check width": func() { New(9, 1).Decode(bitvec.NewVector(9), bitvec.NewVector(7)) },
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

func TestStatusString(t *testing.T) {
	if OK.String() != "ok" || Corrected.String() != "corrected" ||
		DetectedUncorrectable.String() != "detected-uncorrectable" ||
		Status(7).String() != "olsc.Status(7)" {
		t.Fatal("status names wrong")
	}
}

func TestEncodeToMatchesEncode(t *testing.T) {
	c := NewLine(11)
	data := randomVector(xrand.New(12), 512)
	var buf [8]uint64
	check := bitvec.VectorOf(buf[:], c.CheckBits())
	c.EncodeTo(check, data)
	if !slices.Equal(check.Words(), c.Encode(data).Words()) {
		t.Fatal("EncodeTo disagrees with Encode")
	}
}

func TestCodecAllocFree(t *testing.T) {
	c := NewLine(11)
	r := xrand.New(13)
	data := randomVector(r, 512)
	bad := data.Clone()
	for _, b := range r.Sample(512, 11) {
		bad.FlipBit(b)
	}
	allocs := testing.AllocsPerRun(20, func() {
		var ck, d [8]uint64
		check := bitvec.VectorOf(ck[:], c.CheckBits())
		c.EncodeTo(check, data)
		copy(d[:], bad.Words())
		if res := c.Decode(bitvec.VectorOf(d[:], 512), check); res.Status != Corrected || res.DataBitsCorrected != 11 {
			t.Fatalf("decode: %+v", res)
		}
	})
	if allocs != 0 {
		t.Errorf("EncodeTo+Decode allocate %.0f times", allocs)
	}
}

// TestNewLineConcurrent builds and uses the shared line codes from several
// goroutines at once, as the daemon's workers do; run it under -race.
func TestNewLineConcurrent(t *testing.T) {
	data := randomVector(xrand.New(15), 512)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tt := 11; tt >= 1; tt-- {
				c := NewLine(tt)
				d := data.Clone()
				check := c.Encode(d)
				d.FlipBit(g * 100)
				if res := c.Decode(d, check); res.Status != Corrected || !slices.Equal(d.Words(), data.Words()) {
					t.Errorf("t=%d goroutine %d: %+v", tt, g, res)
				}
			}
		}()
	}
	wg.Wait()
}
