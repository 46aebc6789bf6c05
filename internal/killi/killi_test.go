package killi

import (
	"strings"
	"testing"

	"killi/internal/bitvec"
	"killi/internal/cache"
	"killi/internal/faultmodel"
	"killi/internal/obs"
	"killi/internal/protection"
	"killi/internal/sram"
	"killi/internal/stats"
	"killi/internal/xrand"
)

// testHost is a minimal protection.Host for driving the scheme directly.
type testHost struct {
	tags        *cache.Cache
	data        *sram.Array
	ctr         stats.Counters
	invalidated []int // line IDs invalidated at the scheme's request
	cycle       uint64
	obs         obs.Observer
}

func (h *testHost) Tags() *cache.Cache     { return h.tags }
func (h *testHost) Data() *sram.Array      { return h.data }
func (h *testHost) Stats() *stats.Counters { return &h.ctr }
func (h *testHost) Now() uint64            { return h.cycle }
func (h *testHost) Observer() obs.Observer { return h.obs }
func (h *testHost) SchemeInvalidate(set, way int) {
	h.invalidated = append(h.invalidated, h.tags.LineID(set, way))
	h.tags.Invalidate(set, way)
}

// newHost builds a host whose line i carries faults[i] (may be nil).
func newHost(t *testing.T, sets, ways int, faults [][]faultmodel.Fault, v float64) *testHost {
	t.Helper()
	cfg := cache.Config{Sets: sets, Ways: ways, LineBytes: 64}
	for len(faults) < cfg.Lines() {
		faults = append(faults, nil)
	}
	fm := faultmodel.NewMapExplicit(faultmodel.Default(), bitvec.LineBits, 1.0, faults)
	return &testHost{
		tags: cache.New(cfg),
		data: sram.New(cfg.Lines(), fm, v),
	}
}

// attach wires a fresh Killi scheme to a host at the given voltage.
func attach(h *testHost, cfg Config, v float64) *Scheme {
	k := New(cfg)
	k.Attach(h)
	k.Reset(v)
	return k
}

func randomLine(r *xrand.Rand) bitvec.Line {
	var l bitvec.Line
	for w := range l {
		l[w] = r.Uint64()
	}
	return l
}

// fill installs data at (set, way) through the host+scheme as the
// controller would.
func fill(h *testHost, k *Scheme, set, way int, data bitvec.Line) {
	h.tags.Install(set, way, uint64(set*1000+way))
	h.data.Write(h.tags.LineID(set, way), data)
	k.OnFill(set, way, data)
}

// stuck returns an always-active stuck-at fault.
func stuck(bit int, at uint) faultmodel.Fault {
	return faultmodel.Fault{Bit: bit, StuckAt: at, Severity: 0}
}

func TestDFHStrings(t *testing.T) {
	if Stable0.String() != "b'00" || Initial.String() != "b'01" ||
		Stable1.String() != "b'10" || Disabled.String() != "b'11" {
		t.Fatal("DFH notation wrong")
	}
	if !Stable1.Valid() || DFH(7).Valid() {
		t.Fatal("DFH validity wrong")
	}
	if !strings.Contains(DFH(7).String(), "7") {
		t.Fatal("unknown DFH formatting")
	}
}

func TestResetMarksEverythingInitial(t *testing.T) {
	h := newHost(t, 4, 4, nil, 0.625)
	k := attach(h, DefaultConfig(), 0.625)
	h.tags.ForEach(func(set, way int, e *cache.Entry) {
		if DFH(e.Class) != Initial || e.Disabled || e.Valid {
			t.Fatalf("(%d,%d) not reset: class=%v disabled=%v", set, way, DFH(e.Class), e.Disabled)
		}
	})
	if k.ECCOccupancy() != 0 {
		t.Fatal("ECC cache not empty after reset")
	}
}

func TestCleanLineClassifiesStable0(t *testing.T) {
	h := newHost(t, 4, 4, nil, 0.625)
	k := attach(h, Config{Ratio: 1}, 0.625) // ample ECC cache
	data := randomLine(xrand.New(1))
	fill(h, k, 0, 0, data)
	if k.dfhOf(0, 0) != Initial {
		t.Fatal("line not Initial after fill")
	}
	if k.ECCOccupancy() != 1 {
		t.Fatalf("ECC occupancy = %d, want 1 during training", k.ECCOccupancy())
	}
	got := h.data.Read(h.tags.LineID(0, 0))
	if v := k.OnReadHit(0, 0, &got); v != protection.Deliver {
		t.Fatalf("clean read verdict %v", v)
	}
	if got != data {
		t.Fatal("delivered data corrupted")
	}
	if k.dfhOf(0, 0) != Stable0 {
		t.Fatalf("DFH = %v, want b'00", k.dfhOf(0, 0))
	}
	if k.ECCOccupancy() != 0 {
		t.Fatal("ECC entry not freed on b'01→b'00 (the paper's most frequent case)")
	}
	if h.ctr.Get("killi.dfh_b'01_to_b'00") != 1 {
		t.Fatal("transition counter missing")
	}
}

func TestSingleFaultCorrectedAndStable1(t *testing.T) {
	// Line 0 (set 0, way 0) has one stuck-at fault.
	faults := [][]faultmodel.Fault{{stuck(100, 1)}}
	h := newHost(t, 4, 4, faults, 0.625)
	k := attach(h, Config{Ratio: 1}, 0.625)
	data := randomLine(xrand.New(2))
	data.SetBit(100, 0) // ensure the fault is unmasked
	fill(h, k, 0, 0, data)
	got := h.data.Read(h.tags.LineID(0, 0))
	if got == data {
		t.Fatal("fault did not corrupt the read")
	}
	if v := k.OnReadHit(0, 0, &got); v != protection.Deliver {
		t.Fatalf("verdict %v, want deliver (1-bit LV error row of Table 2)", v)
	}
	if got != data {
		t.Fatal("data not corrected")
	}
	if k.dfhOf(0, 0) != Stable1 {
		t.Fatalf("DFH = %v, want b'10", k.dfhOf(0, 0))
	}
	if k.ECCOccupancy() != 1 {
		t.Fatal("Stable1 line must keep its ECC entry")
	}
	// Subsequent hits stay Stable1 and keep correcting.
	got = h.data.Read(h.tags.LineID(0, 0))
	if v := k.OnReadHit(0, 0, &got); v != protection.Deliver || got != data {
		t.Fatal("repeat Stable1 hit failed")
	}
	if k.dfhOf(0, 0) != Stable1 {
		t.Fatal("Stable1 did not persist")
	}
}

func TestDoubleFaultDisables(t *testing.T) {
	// Two stuck-at faults in different 32-bit interleaved segments.
	faults := [][]faultmodel.Fault{{stuck(0, 1), stuck(1, 1)}}
	h := newHost(t, 4, 4, faults, 0.625)
	k := attach(h, Config{Ratio: 1}, 0.625)
	var data bitvec.Line // zeros: both faults unmasked
	fill(h, k, 0, 0, data)
	got := h.data.Read(h.tags.LineID(0, 0))
	if v := k.OnReadHit(0, 0, &got); v != protection.ErrorMiss {
		t.Fatalf("verdict %v, want error-miss", v)
	}
	if k.dfhOf(0, 0) != Disabled {
		t.Fatalf("DFH = %v, want b'11", k.dfhOf(0, 0))
	}
	e := h.tags.Entry(0, 0)
	if !e.Disabled || e.Valid {
		t.Fatal("line not disabled/invalidated")
	}
	if k.ECCOccupancy() != 0 {
		t.Fatal("disabled line's ECC entry not freed")
	}
}

func TestSameSegmentDoubleFaultCaughtByECC(t *testing.T) {
	// Bits 0 and 16 share interleaved-16 segment 0: segmented parity is
	// blind, but SECDED's syndrome+global-parity sees two errors
	// (the "Even number of errors" row).
	faults := [][]faultmodel.Fault{{stuck(0, 1), stuck(16, 1)}}
	h := newHost(t, 4, 4, faults, 0.625)
	k := attach(h, Config{Ratio: 1}, 0.625)
	var data bitvec.Line
	fill(h, k, 0, 0, data)
	got := h.data.Read(h.tags.LineID(0, 0))
	if v := k.OnReadHit(0, 0, &got); v != protection.ErrorMiss {
		t.Fatalf("verdict %v", v)
	}
	if k.dfhOf(0, 0) != Disabled {
		t.Fatalf("DFH = %v, want b'11", k.dfhOf(0, 0))
	}
}

func TestMaskedFaultMisclassifiesThenRelearns(t *testing.T) {
	// A stuck-at-1 fault under data that has that bit set is invisible:
	// the line trains to b'00. When a write flips the bit, the fault
	// unmasks; the next read sees one parity mismatch, returns the line
	// to b'01 (error-induced miss), and the refill + read reclassifies it
	// to b'10 — the §4.3 oscillation.
	faults := [][]faultmodel.Fault{{stuck(200, 1)}}
	h := newHost(t, 4, 4, faults, 0.625)
	k := attach(h, Config{Ratio: 1}, 0.625)
	id := h.tags.LineID(0, 0)

	masked := randomLine(xrand.New(3))
	masked.SetBit(200, 1)
	fill(h, k, 0, 0, masked)
	got := h.data.Read(id)
	if v := k.OnReadHit(0, 0, &got); v != protection.Deliver || k.dfhOf(0, 0) != Stable0 {
		t.Fatalf("masked fault should classify b'00, got %v / %v", v, k.dfhOf(0, 0))
	}

	unmasked := masked
	unmasked.SetBit(200, 0)
	h.data.Write(id, unmasked)
	k.OnWriteHit(0, 0, unmasked)
	got = h.data.Read(id)
	if v := k.OnReadHit(0, 0, &got); v != protection.ErrorMiss {
		t.Fatalf("unmasked fault verdict %v, want error-miss", v)
	}
	if k.dfhOf(0, 0) != Initial {
		t.Fatalf("DFH = %v, want back to b'01 for relearning", k.dfhOf(0, 0))
	}
	if h.ctr.Get("killi.post_training_single_error") != 1 {
		t.Fatal("post-training error not counted")
	}

	// Refill (the error-induced miss's refetch) and reclassify.
	fill(h, k, 0, 0, unmasked)
	got = h.data.Read(id)
	if v := k.OnReadHit(0, 0, &got); v != protection.Deliver || got != unmasked {
		t.Fatal("reclassification read failed")
	}
	if k.dfhOf(0, 0) != Stable1 {
		t.Fatalf("DFH = %v, want b'10 after relearning", k.dfhOf(0, 0))
	}
}

func TestStable1FaultVanishesReclassifiesStable0(t *testing.T) {
	// A Stable1 line whose data is rewritten so the fault masks again
	// reads clean: Table 2 row (b'10, ✓, ✓, ✓) → b'00.
	faults := [][]faultmodel.Fault{{stuck(64, 0)}}
	h := newHost(t, 4, 4, faults, 0.625)
	k := attach(h, Config{Ratio: 1}, 0.625)
	id := h.tags.LineID(0, 0)
	data := randomLine(xrand.New(4))
	data.SetBit(64, 1) // unmasked
	fill(h, k, 0, 0, data)
	got := h.data.Read(id)
	k.OnReadHit(0, 0, &got)
	if k.dfhOf(0, 0) != Stable1 {
		t.Fatalf("setup failed: DFH %v", k.dfhOf(0, 0))
	}
	masked := data
	masked.SetBit(64, 0) // masks the stuck-at-0 cell
	h.data.Write(id, masked)
	k.OnWriteHit(0, 0, masked)
	got = h.data.Read(id)
	if v := k.OnReadHit(0, 0, &got); v != protection.Deliver {
		t.Fatalf("verdict %v", v)
	}
	if k.dfhOf(0, 0) != Stable0 {
		t.Fatalf("DFH = %v, want b'00", k.dfhOf(0, 0))
	}
	if k.ECCOccupancy() != 0 {
		t.Fatal("ECC entry not freed on b'10→b'00")
	}
}

func TestStable1PlusSoftErrorDisables(t *testing.T) {
	faults := [][]faultmodel.Fault{{stuck(10, 1)}}
	h := newHost(t, 4, 4, faults, 0.625)
	k := attach(h, Config{Ratio: 1}, 0.625)
	id := h.tags.LineID(0, 0)
	var data bitvec.Line // stuck-at-1 on bit 10 is unmasked
	fill(h, k, 0, 0, data)
	got := h.data.Read(id)
	k.OnReadHit(0, 0, &got)
	if k.dfhOf(0, 0) != Stable1 {
		t.Fatalf("setup failed: %v", k.dfhOf(0, 0))
	}
	// A soft error on top of the LV fault: two errors, SECDED detects,
	// cannot correct → disable.
	h.data.InjectSoftError(id, 300)
	got = h.data.Read(id)
	if v := k.OnReadHit(0, 0, &got); v != protection.ErrorMiss {
		t.Fatalf("verdict %v", v)
	}
	if k.dfhOf(0, 0) != Disabled {
		t.Fatalf("DFH = %v, want b'11 (error on line with existing 1-bit LV error)", k.dfhOf(0, 0))
	}
}

func TestSoftErrorOnStable0Relearns(t *testing.T) {
	h := newHost(t, 4, 4, nil, 0.625)
	k := attach(h, Config{Ratio: 1}, 0.625)
	id := h.tags.LineID(0, 0)
	data := randomLine(xrand.New(5))
	fill(h, k, 0, 0, data)
	got := h.data.Read(id)
	k.OnReadHit(0, 0, &got) // → Stable0
	h.data.InjectSoftError(id, 7)
	got = h.data.Read(id)
	if v := k.OnReadHit(0, 0, &got); v != protection.ErrorMiss {
		t.Fatalf("verdict %v", v)
	}
	if k.dfhOf(0, 0) != Initial {
		t.Fatalf("DFH = %v, want b'01", k.dfhOf(0, 0))
	}
	// The refetch overwrites the transient; the line trains back to b'00.
	fill(h, k, 0, 0, data)
	got = h.data.Read(id)
	if v := k.OnReadHit(0, 0, &got); v != protection.Deliver || k.dfhOf(0, 0) != Stable0 {
		t.Fatal("line did not recover to b'00 after transient")
	}
}

func TestEvictionTraining(t *testing.T) {
	cases := []struct {
		name   string
		faults []faultmodel.Fault
		want   DFH
	}{
		{"clean", nil, Stable0},
		{"one fault", []faultmodel.Fault{stuck(5, 1)}, Stable1},
		{"two faults", []faultmodel.Fault{stuck(5, 1), stuck(6, 1)}, Disabled},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHost(t, 4, 4, [][]faultmodel.Fault{tc.faults}, 0.625)
			k := attach(h, Config{Ratio: 1}, 0.625)
			var data bitvec.Line
			fill(h, k, 0, 0, data)
			k.OnEvict(0, 0)
			h.tags.Invalidate(0, 0)
			if got := k.dfhOf(0, 0); got != tc.want {
				t.Fatalf("DFH after eviction training = %v, want %v", got, tc.want)
			}
			if k.ECCOccupancy() != 0 {
				t.Fatal("ECC entry not freed after eviction")
			}
			if h.ctr.Get("killi.eviction_trainings") != 1 {
				t.Fatal("eviction training not counted")
			}
		})
	}
}

// contentionHost builds a 16-set direct-mapped host whose line 0 carries
// the given faults and drives 5 fills through a 4-entry ECC cache, so the
// 5th allocation evicts line 0's entry and triggers contention training.
func contentionHost(t *testing.T, faults []faultmodel.Fault, cfg Config) (*testHost, *Scheme) {
	t.Helper()
	cfg.Ratio, cfg.Assoc = 4, 4 // 16/4 = 4 entries, one set
	h := newHost(t, 16, 1, [][]faultmodel.Fault{faults}, 0.625)
	k := attach(h, cfg, 0.625)
	if k.ECCEntries() != 4 {
		t.Fatalf("ECC entries = %d, want 4", k.ECCEntries())
	}
	r := xrand.New(6)
	for set := 0; set < 5; set++ {
		fill(h, k, set, 0, randomLine(r))
	}
	if h.ctr.Get("killi.ecc_contention_evictions") == 0 {
		t.Fatal("contention eviction not counted")
	}
	return h, k
}

func TestECCContentionCleanVictimStaysResident(t *testing.T) {
	// A fault-free victim is classified on the way out of the ECC cache and,
	// having no fault to protect against, stays resident in the L2 under its
	// folded 4-bit parity (§4.4 training applied to contention evictions).
	h, k := contentionHost(t, nil, Config{})
	if len(h.invalidated) != 0 {
		t.Fatalf("clean contention victim invalidated: %v", h.invalidated)
	}
	if !h.tags.Entry(0, 0).Valid {
		t.Fatal("clean victim no longer valid")
	}
	if got := k.dfhOf(0, 0); got != Stable0 {
		t.Fatalf("victim DFH = %v, want b'00", got)
	}
	// The resident line must still read correctly through its folded parity.
	data := h.data.Read(h.tags.LineID(0, 0))
	truth := h.data.ReadTrue(h.tags.LineID(0, 0))
	if v := k.OnReadHit(0, 0, &data); v != protection.Deliver {
		t.Fatalf("read verdict on kept victim = %v", v)
	}
	if data != truth {
		t.Fatal("kept victim delivered corrupt data")
	}
}

func TestECCContentionFaultyVictimInvalidated(t *testing.T) {
	// A victim with an unmasked stuck-at fault (data bit 7 is 1, the cell
	// sticks at 0) classifies Stable1; its checkbits die with the ECC
	// entry, so the line must leave the L2.
	h, k := contentionHost(t, []faultmodel.Fault{stuck(7, 0)}, Config{})
	if len(h.invalidated) != 1 || h.invalidated[0] != 0 {
		t.Fatalf("invalidated = %v, want [0]", h.invalidated)
	}
	if h.tags.Entry(0, 0).Valid {
		t.Fatal("faulty victim still valid")
	}
	if got := k.dfhOf(0, 0); got != Stable1 {
		t.Fatalf("victim DFH = %v, want b'10", got)
	}
}

func TestECCContentionMaskedFaultCaughtByPolarityTest(t *testing.T) {
	// A fault masked by matching data passes parity+ECC classification, but
	// the keep-resident path runs the §5.6.2 polarity test before trusting
	// the line to 4-bit parity alone — the masked fault must be unmasked
	// and the line evicted as Stable1, not kept as Stable0.
	// Data bit 0 of the first fill is 1, so a stuck-at-1 cell there is
	// masked and invisible to parity+ECC.
	h, k := contentionHost(t, []faultmodel.Fault{stuck(0, 1)}, Config{})
	if h.ctr.Get("killi.inverted_unmasked_single") == 0 {
		t.Fatal("polarity test did not unmask the masked fault")
	}
	if got := k.dfhOf(0, 0); got != Stable1 {
		t.Fatalf("victim DFH = %v, want b'10", got)
	}
	if len(h.invalidated) != 1 || h.invalidated[0] != 0 {
		t.Fatalf("invalidated = %v, want [0]", h.invalidated)
	}
}

func TestECCContentionNoEvictionTrainingInvalidates(t *testing.T) {
	// With eviction training disabled, an Initial victim loses its entry
	// untrained and unprotected: it must leave the L2 still Initial.
	h, k := contentionHost(t, nil, Config{NoEvictionTraining: true})
	if len(h.invalidated) != 1 || h.invalidated[0] != 0 {
		t.Fatalf("invalidated = %v, want [0]", h.invalidated)
	}
	if got := k.dfhOf(0, 0); got != Initial {
		t.Fatalf("victim DFH = %v, want b'01", got)
	}
}

func TestVictimPriority(t *testing.T) {
	h := newHost(t, 1, 4, nil, 0.625)
	k := attach(h, DefaultConfig(), 0.625)
	tags := h.tags
	// way0: invalid Stable1, way1: invalid Stable0, way2: invalid
	// Initial, way3: valid. Priority says way2 (b'01) first.
	tags.Entry(0, 0).Class = uint8(Stable1)
	tags.Entry(0, 1).Class = uint8(Stable0)
	tags.Entry(0, 2).Class = uint8(Initial)
	tags.Install(0, 3, 99)
	way, ok := tags.Victim(0, k.VictimFunc())
	if !ok || way != 2 {
		t.Fatalf("victim = %d, want the b'01 way 2", way)
	}
	tags.Install(0, 2, 98)
	way, _ = tags.Victim(0, k.VictimFunc())
	if way != 1 {
		t.Fatalf("victim = %d, want the b'00 way 1", way)
	}
	tags.Install(0, 1, 97)
	way, _ = tags.Victim(0, k.VictimFunc())
	if way != 0 {
		t.Fatalf("victim = %d, want the b'10 way 0", way)
	}
	// All valid: LRU fallback.
	tags.Install(0, 0, 96)
	tags.Touch(0, 3)
	way, _ = tags.Victim(0, k.VictimFunc())
	if way == 3 {
		t.Fatal("LRU fallback picked the MRU way")
	}
}

func TestResetReclaimsDisabledLines(t *testing.T) {
	faults := [][]faultmodel.Fault{{stuck(0, 1), stuck(1, 1)}}
	h := newHost(t, 4, 4, faults, 0.625)
	k := attach(h, Config{Ratio: 1}, 0.625)
	var data bitvec.Line
	fill(h, k, 0, 0, data)
	got := h.data.Read(0)
	k.OnReadHit(0, 0, &got)
	if k.dfhOf(0, 0) != Disabled {
		t.Fatal("setup failed")
	}
	// Voltage raise: faults with Severity 0 stay active, but the DFH
	// reset must still return the line to Initial for relearning.
	k.Reset(0.9)
	if k.dfhOf(0, 0) != Initial || h.tags.Entry(0, 0).Disabled {
		t.Fatal("disabled line not reclaimed by DFH reset")
	}
}

func TestInvertedTrainingCatchesMaskedFault(t *testing.T) {
	// Without inverted training the masked fault trains to b'00; with it,
	// the polarity check unmasks the stuck cell immediately → b'10.
	faults := [][]faultmodel.Fault{{stuck(200, 1)}}
	h := newHost(t, 4, 4, faults, 0.625)
	k := attach(h, Config{Ratio: 1, InvertedTraining: true}, 0.625)
	id := h.tags.LineID(0, 0)
	masked := randomLine(xrand.New(7))
	masked.SetBit(200, 1)
	fill(h, k, 0, 0, masked)
	got := h.data.Read(id)
	if v := k.OnReadHit(0, 0, &got); v != protection.Deliver {
		t.Fatalf("verdict %v", v)
	}
	if k.dfhOf(0, 0) != Stable1 {
		t.Fatalf("DFH = %v, want b'10 (inverted check unmasks the fault)", k.dfhOf(0, 0))
	}
	if h.ctr.Get("killi.inverted_unmasked_single") != 1 {
		t.Fatal("unmask not counted")
	}
	// The check must restore the original data.
	if h.data.ReadTrue(id) != masked {
		t.Fatal("inverted check corrupted stored data")
	}
}

func TestInvertedTrainingMultiMaskedDisables(t *testing.T) {
	faults := [][]faultmodel.Fault{{stuck(100, 1), stuck(101, 1)}}
	h := newHost(t, 4, 4, faults, 0.625)
	k := attach(h, Config{Ratio: 1, InvertedTraining: true}, 0.625)
	masked := randomLine(xrand.New(8))
	masked.SetBit(100, 1)
	masked.SetBit(101, 1)
	fill(h, k, 0, 0, masked)
	got := h.data.Read(h.tags.LineID(0, 0))
	if v := k.OnReadHit(0, 0, &got); v != protection.ErrorMiss {
		t.Fatalf("verdict %v", v)
	}
	if k.dfhOf(0, 0) != Disabled {
		t.Fatalf("DFH = %v, want b'11", k.dfhOf(0, 0))
	}
}

func TestDECTEDModeKeepsTwoFaultLineEnabled(t *testing.T) {
	faults := [][]faultmodel.Fault{{stuck(0, 1), stuck(16, 1)}} // same parity segment
	h := newHost(t, 4, 4, faults, 0.625)
	k := attach(h, Config{Ratio: 1, UseDECTED: true}, 0.625)
	id := h.tags.LineID(0, 0)
	var data bitvec.Line
	fill(h, k, 0, 0, data)
	got := h.data.Read(id)
	// First read: classification discovers 2 errors → promote to DECTED,
	// refetch required.
	if v := k.OnReadHit(0, 0, &got); v != protection.ErrorMiss {
		t.Fatalf("promotion verdict %v", v)
	}
	if k.dfhOf(0, 0) != Stable1 {
		t.Fatalf("DFH = %v, want b'10 (DECTED-extended)", k.dfhOf(0, 0))
	}
	if h.tags.Entry(0, 0).Disabled {
		t.Fatal("2-fault line disabled despite DECTED mode")
	}
	// Refill (the refetch) and read again: DECTED corrects both faults.
	fill(h, k, 0, 0, data)
	got = h.data.Read(id)
	if v := k.OnReadHit(0, 0, &got); v != protection.Deliver {
		t.Fatalf("DECTED read verdict %v", v)
	}
	if got != data {
		t.Fatal("DECTED did not correct the two stuck bits")
	}
	if h.ctr.Get("killi.dected_promotions") != 1 {
		t.Fatal("promotion not counted")
	}
}

func TestDECTEDModeThreeFaultsStillDisable(t *testing.T) {
	faults := [][]faultmodel.Fault{{stuck(0, 1), stuck(1, 1), stuck(2, 1)}}
	h := newHost(t, 4, 4, faults, 0.625)
	k := attach(h, Config{Ratio: 1, UseDECTED: true}, 0.625)
	var data bitvec.Line
	fill(h, k, 0, 0, data)
	got := h.data.Read(h.tags.LineID(0, 0))
	if v := k.OnReadHit(0, 0, &got); v != protection.ErrorMiss {
		t.Fatalf("verdict %v", v)
	}
	if k.dfhOf(0, 0) != Disabled {
		t.Fatalf("DFH = %v, want b'11 (3 faults exceed DECTED)", k.dfhOf(0, 0))
	}
}

func TestName(t *testing.T) {
	if New(Config{Ratio: 64}).Name() != "killi-1:64" {
		t.Fatal("name wrong")
	}
	if New(Config{Ratio: 16, UseDECTED: true}).Name() != "killi-dected-1:16" {
		t.Fatal("DECTED name wrong")
	}
}

func TestDefaultsApplied(t *testing.T) {
	k := New(Config{})
	h := newHost(t, 64, 4, nil, 0.625)
	k.Attach(h)
	k.Reset(0.625)
	if k.ECCEntries() != 64*4/64 {
		t.Fatalf("default ratio not applied: %d entries", k.ECCEntries())
	}
}

func TestCoordinatedPromotionKeepsHotEntryResident(t *testing.T) {
	// Two Stable1 lines contending... simpler: verify a touched Initial
	// line's ECC entry survives contention better than an untouched one.
	// With a 4-entry single-set ECC cache and 5 lines, after touching
	// line 0 repeatedly, allocating a 5th entry must not evict line 0's.
	h := newHost(t, 16, 1, nil, 0.625)
	k := attach(h, Config{Ratio: 4, Assoc: 4}, 0.625)
	r := xrand.New(9)
	datas := make([]bitvec.Line, 5)
	for set := 0; set < 4; set++ {
		datas[set] = randomLine(r)
		fill(h, k, set, 0, datas[set])
	}
	// Touch line (0,0) via a read hit; it stays Initial? No: a clean read
	// classifies it b'00 and frees the entry. Use a faulty line instead.
	// Simply re-touch via OnFill (write) to refresh recency.
	k.OnWriteHit(0, 0, datas[0])
	fill(h, k, 4, 0, datas[4] /* 5th allocation */)
	// Line 0's entry must still be present: a read hit on it must not
	// panic (Initial requires an entry).
	got := h.data.Read(h.tags.LineID(0, 0))
	if v := k.OnReadHit(0, 0, &got); v != protection.Deliver {
		t.Fatalf("verdict %v", v)
	}
}

func TestScrubReclaimsSoftErrorDisabledLines(t *testing.T) {
	// A clean line disabled by a double soft error must come back as
	// Stable0 after a scrub; a genuinely 2-fault line must not.
	faults := [][]faultmodel.Fault{
		nil,                        // line (0,0): clean
		{stuck(0, 1), stuck(1, 1)}, // line (0,1): persistent 2-fault
	}
	h := newHost(t, 4, 2, faults, 0.625)
	k := attach(h, Config{Ratio: 1}, 0.625)

	// Disable (0,0) via two soft errors in distinct fold segments.
	data := randomLine(xrand.New(31))
	fill(h, k, 0, 0, data)
	got := h.data.Read(h.tags.LineID(0, 0))
	k.OnReadHit(0, 0, &got) // classify Stable0
	h.data.InjectSoftError(h.tags.LineID(0, 0), 0)
	h.data.InjectSoftError(h.tags.LineID(0, 0), 1)
	got = h.data.Read(h.tags.LineID(0, 0))
	if v := k.OnReadHit(0, 0, &got); v != protection.ErrorMiss || k.dfhOf(0, 0) != Disabled {
		t.Fatalf("setup: %v / %v", v, k.dfhOf(0, 0))
	}

	// Disable (0,1) via its persistent faults.
	var zero bitvec.Line
	fill(h, k, 0, 1, zero)
	got = h.data.Read(h.tags.LineID(0, 1))
	if v := k.OnReadHit(0, 1, &got); v != protection.ErrorMiss || k.dfhOf(0, 1) != Disabled {
		t.Fatalf("setup persistent: %v / %v", v, k.dfhOf(0, 1))
	}

	if n := k.Scrub(); n != 1 {
		t.Fatalf("scrub reclaimed %d lines, want 1", n)
	}
	if k.dfhOf(0, 0) != Stable0 {
		t.Fatalf("soft-error line DFH = %v after scrub, want b'00", k.dfhOf(0, 0))
	}
	if k.dfhOf(0, 1) != Disabled {
		t.Fatalf("persistent 2-fault line DFH = %v after scrub, want b'11", k.dfhOf(0, 1))
	}
	if h.ctr.Get("killi.scrub_tests") != 2 || h.ctr.Get("killi.scrub_reclaimed") != 1 {
		t.Fatal("scrub counters wrong")
	}
	// The reclaimed line must be usable again.
	fill(h, k, 0, 0, data)
	got = h.data.Read(h.tags.LineID(0, 0))
	if v := k.OnReadHit(0, 0, &got); v != protection.Deliver || got != data {
		t.Fatal("reclaimed line unusable")
	}
}

func TestScrubReclaimsOneFaultLineAsStable1(t *testing.T) {
	// A 1-fault line disabled by (fault + soft error) comes back as
	// Stable1 once the transient is gone.
	faults := [][]faultmodel.Fault{{stuck(10, 1)}}
	h := newHost(t, 2, 1, faults, 0.625)
	k := attach(h, Config{Ratio: 1}, 0.625)
	var data bitvec.Line
	fill(h, k, 0, 0, data)
	got := h.data.Read(0)
	k.OnReadHit(0, 0, &got) // Stable1
	h.data.InjectSoftError(0, 300)
	got = h.data.Read(0)
	if v := k.OnReadHit(0, 0, &got); v != protection.ErrorMiss || k.dfhOf(0, 0) != Disabled {
		t.Fatalf("setup: %v / %v", v, k.dfhOf(0, 0))
	}
	if n := k.Scrub(); n != 1 {
		t.Fatalf("scrub reclaimed %d", n)
	}
	if k.dfhOf(0, 0) != Stable1 {
		t.Fatalf("DFH = %v after scrub, want b'10", k.dfhOf(0, 0))
	}
	// Usable again, with SECDED correcting the persistent fault.
	fill(h, k, 0, 0, data)
	got = h.data.Read(0)
	if v := k.OnReadHit(0, 0, &got); v != protection.Deliver || got != data {
		t.Fatal("reclaimed Stable1 line unusable")
	}
}

func TestScrubNoopWithoutDisabledLines(t *testing.T) {
	h := newHost(t, 2, 2, nil, 0.625)
	k := attach(h, Config{Ratio: 1}, 0.625)
	if n := k.Scrub(); n != 0 {
		t.Fatalf("scrub on healthy cache reclaimed %d", n)
	}
	if h.ctr.Get("killi.scrub_tests") != 0 {
		t.Fatal("scrub tested enabled lines")
	}
}

func TestOLSCModeKeepsManyFaultLinesEnabled(t *testing.T) {
	// §5.5: with OLSC in the ECC cache, a line with 8 stuck faults stays
	// enabled and its data is corrected on every read.
	many := make([]faultmodel.Fault, 8)
	for i := range many {
		many[i] = stuck(i*61, 1)
	}
	h := newHost(t, 4, 4, [][]faultmodel.Fault{many}, 0.575)
	k := attach(h, Config{Ratio: 1, OLSCStrength: 11}, 0.575)
	var data bitvec.Line
	fill(h, k, 0, 0, data)
	got := h.data.Read(h.tags.LineID(0, 0))
	if v := k.OnReadHit(0, 0, &got); v != protection.Deliver {
		t.Fatalf("verdict %v", v)
	}
	if got != data {
		t.Fatal("OLSC did not correct 8 faults")
	}
	if k.dfhOf(0, 0) != Stable1 {
		t.Fatalf("DFH %v, want b'10 (enabled under OLSC)", k.dfhOf(0, 0))
	}
	// Repeat reads keep correcting.
	got = h.data.Read(h.tags.LineID(0, 0))
	if v := k.OnReadHit(0, 0, &got); v != protection.Deliver || got != data {
		t.Fatal("repeat OLSC read failed")
	}
}

func TestOLSCModeDisablesBeyondStrength(t *testing.T) {
	many := make([]faultmodel.Fault, 12)
	for i := range many {
		many[i] = stuck(i*41, 1)
	}
	h := newHost(t, 4, 4, [][]faultmodel.Fault{many}, 0.575)
	k := attach(h, Config{Ratio: 1, OLSCStrength: 11}, 0.575)
	var data bitvec.Line
	fill(h, k, 0, 0, data)
	got := h.data.Read(h.tags.LineID(0, 0))
	if v := k.OnReadHit(0, 0, &got); v != protection.ErrorMiss {
		t.Fatalf("verdict %v", v)
	}
	if k.dfhOf(0, 0) != Disabled {
		t.Fatalf("DFH %v, want b'11 (12 > 11)", k.dfhOf(0, 0))
	}
}

func TestOLSCModeCleanLineFreesEntry(t *testing.T) {
	h := newHost(t, 4, 4, nil, 0.575)
	k := attach(h, Config{Ratio: 1, OLSCStrength: 11}, 0.575)
	data := randomLine(xrand.New(61))
	fill(h, k, 0, 0, data)
	got := h.data.Read(h.tags.LineID(0, 0))
	if v := k.OnReadHit(0, 0, &got); v != protection.Deliver || got != data {
		t.Fatal("clean OLSC read failed")
	}
	if k.dfhOf(0, 0) != Stable0 || k.ECCOccupancy() != 0 {
		t.Fatal("clean line did not release its entry in OLSC mode")
	}
}

func TestOLSCModeEvictionTraining(t *testing.T) {
	faults := [][]faultmodel.Fault{{stuck(3, 1), stuck(77, 1), stuck(300, 1)}}
	h := newHost(t, 4, 4, faults, 0.575)
	k := attach(h, Config{Ratio: 1, OLSCStrength: 11}, 0.575)
	var data bitvec.Line
	fill(h, k, 0, 0, data)
	k.OnEvict(0, 0)
	h.tags.Invalidate(0, 0)
	if k.dfhOf(0, 0) != Stable1 {
		t.Fatalf("DFH after OLSC eviction training = %v, want b'10", k.dfhOf(0, 0))
	}
}

func TestOLSCAndDECTEDMutuallyExclusive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("UseDECTED+OLSCStrength did not panic")
		}
	}()
	New(Config{UseDECTED: true, OLSCStrength: 11})
}

func TestOLSCModeName(t *testing.T) {
	if New(Config{Ratio: 2, OLSCStrength: 11}).Name() != "killi-olsc11-1:2" {
		t.Fatal("OLSC-mode name wrong")
	}
}

// TestPolarityCheckKeepsGroundTruth pins that the §5.6.2 polarity test
// writes patterns, not data: it counts the stuck cells, leaves the line's
// cells holding what it was told to restore — here a read corrupted by a
// soft flip — and leaves the array's ground truth at the last real write,
// so a later delivery of the corrupted line still counts as SDC.
func TestPolarityCheckKeepsGroundTruth(t *testing.T) {
	h := newHost(t, 4, 4, [][]faultmodel.Fault{{stuck(13, 1), stuck(200, 0)}}, 0.625)
	truth := randomLine(xrand.New(31))
	h.data.Write(0, truth)
	h.data.InjectSoftError(0, 77)
	read := h.data.Read(0)
	if got := h.data.StuckCells(0, read); got != 2 {
		t.Fatalf("polarity test found %d stuck cells, want 2", got)
	}
	if h.data.Read(0) != read {
		t.Fatal("polarity test did not restore the line's cells")
	}
	if h.data.ReadTrue(0) != truth {
		t.Fatal("polarity test replaced the ground truth with its restore pattern")
	}
}
