package protection

import (
	"slices"
	"testing"

	"killi/internal/bitvec"
	"killi/internal/cache"
	"killi/internal/faultmodel"
	"killi/internal/obs"
	"killi/internal/sram"
	"killi/internal/stats"
	"killi/internal/xrand"
)

type testHost struct {
	tags *cache.Cache
	data *sram.Array
	ctr  stats.Counters
}

func (h *testHost) Tags() *cache.Cache        { return h.tags }
func (h *testHost) Data() *sram.Array         { return h.data }
func (h *testHost) Stats() *stats.Counters    { return &h.ctr }
func (h *testHost) SchemeInvalidate(s, w int) { h.tags.Invalidate(s, w) }
func (h *testHost) Now() uint64               { return 0 }
func (h *testHost) Observer() obs.Observer    { return nil }

func newHost(t *testing.T, sets, ways int, faults [][]faultmodel.Fault, v float64) *testHost {
	t.Helper()
	cfg := cache.Config{Sets: sets, Ways: ways, LineBytes: 64}
	for len(faults) < cfg.Lines() {
		faults = append(faults, nil)
	}
	fm := faultmodel.NewMapExplicit(faultmodel.Default(), bitvec.LineBits, 1.0, faults)
	return &testHost{tags: cache.New(cfg), data: sram.New(cfg.Lines(), fm, v)}
}

func stuck(bit int, at uint) faultmodel.Fault {
	return faultmodel.Fault{Bit: bit, StuckAt: at, Severity: 0}
}

func randomLine(r *xrand.Rand) bitvec.Line {
	var l bitvec.Line
	for w := range l {
		l[w] = r.Uint64()
	}
	return l
}

func fill(h *testHost, s Scheme, set, way int, data bitvec.Line) {
	h.tags.Install(set, way, uint64(set*1000+way))
	h.data.Write(h.tags.LineID(set, way), data)
	s.OnFill(set, way, data)
}

func TestVerdictString(t *testing.T) {
	if Deliver.String() != "deliver" || ErrorMiss.String() != "error-miss" {
		t.Fatal("verdict names wrong")
	}
	if Verdict(9).String() != "protection.Verdict(9)" {
		t.Fatal("unknown verdict formatting")
	}
}

func TestNonePassesEverything(t *testing.T) {
	h := newHost(t, 2, 2, nil, 1.0)
	n := NewNone()
	n.Attach(h)
	n.Reset(1.0)
	data := randomLine(xrand.New(1))
	fill(h, n, 0, 0, data)
	got := h.data.Read(0)
	if v := n.OnReadHit(0, 0, &got); v != Deliver || got != data {
		t.Fatal("None altered behaviour")
	}
	if n.Name() != "none" || n.VictimFunc() != nil {
		t.Fatal("None metadata wrong")
	}
	n.OnWriteHit(0, 0, data)
	n.OnEvict(0, 0)
}

func TestSECDEDPerLineDisablesMultiFaultLines(t *testing.T) {
	faults := [][]faultmodel.Fault{
		{},                          // line 0 clean
		{stuck(3, 1)},               // line 1: correctable
		{stuck(3, 1), stuck(99, 1)}, // line 2: 2 faults → disabled
	}
	h := newHost(t, 4, 1, faults, 0.625)
	s := NewSECDEDPerLine()
	s.Attach(h)
	s.Reset(0.625)
	if h.tags.Entry(0, 0).Disabled || h.tags.Entry(1, 0).Disabled {
		t.Fatal("fault-free/1-fault lines disabled")
	}
	if !h.tags.Entry(2, 0).Disabled {
		t.Fatal("2-fault line not disabled by MBIST pre-characterization")
	}
	if h.ctr.Get("protection.lines_disabled") != 1 {
		t.Fatal("disable not counted")
	}
}

func TestPerLineCorrectsSingleFault(t *testing.T) {
	faults := [][]faultmodel.Fault{{stuck(7, 1)}}
	h := newHost(t, 4, 1, faults, 0.625)
	s := NewSECDEDPerLine()
	s.Attach(h)
	s.Reset(0.625)
	var data bitvec.Line
	fill(h, s, 0, 0, data)
	got := h.data.Read(0)
	if got == data {
		t.Fatal("fault not visible")
	}
	if v := s.OnReadHit(0, 0, &got); v != Deliver || got != data {
		t.Fatal("SECDED did not correct the single fault")
	}
	if h.ctr.Get("protection.corrected_reads") != 1 {
		t.Fatal("correction not counted")
	}
}

func TestPerLineUncorrectableBecomesErrorMiss(t *testing.T) {
	// A soft error on a 1-fault line: SECDED detects 2 errors, cannot
	// correct → invalidate + refetch (write-through makes this safe).
	faults := [][]faultmodel.Fault{{stuck(7, 1)}}
	h := newHost(t, 4, 1, faults, 0.625)
	s := NewSECDEDPerLine()
	s.Attach(h)
	s.Reset(0.625)
	var data bitvec.Line
	fill(h, s, 0, 0, data)
	h.data.InjectSoftError(0, 400)
	got := h.data.Read(0)
	if v := s.OnReadHit(0, 0, &got); v != ErrorMiss {
		t.Fatalf("verdict %v", v)
	}
	if h.tags.Entry(0, 0).Valid {
		t.Fatal("line not invalidated")
	}
}

func TestDECTEDPerLineEnablesTwoFaultLines(t *testing.T) {
	faults := [][]faultmodel.Fault{
		{stuck(3, 1), stuck(99, 1)},                // 2 faults: enabled, corrected
		{stuck(3, 1), stuck(99, 1), stuck(200, 1)}, // 3 faults: disabled
	}
	h := newHost(t, 4, 1, faults, 0.625)
	s := NewDECTEDPerLine()
	s.Attach(h)
	s.Reset(0.625)
	if h.tags.Entry(0, 0).Disabled {
		t.Fatal("2-fault line disabled under DECTED")
	}
	if !h.tags.Entry(1, 0).Disabled {
		t.Fatal("3-fault line not disabled under DECTED")
	}
	var data bitvec.Line
	fill(h, s, 0, 0, data)
	got := h.data.Read(0)
	if v := s.OnReadHit(0, 0, &got); v != Deliver || got != data {
		t.Fatal("DECTED did not correct 2 faults")
	}
}

func TestMSECCEnablesUpToEleven(t *testing.T) {
	many := make([]faultmodel.Fault, 11)
	for i := range many {
		many[i] = stuck(i*37, 1)
	}
	tooMany := append(append([]faultmodel.Fault{}, many...), stuck(499, 1))
	h := newHost(t, 4, 1, [][]faultmodel.Fault{many, tooMany}, 0.625)
	s := NewMSECC()
	s.Attach(h)
	s.Reset(0.625)
	if h.tags.Entry(0, 0).Disabled {
		t.Fatal("11-fault line disabled under MS-ECC")
	}
	if !h.tags.Entry(1, 0).Disabled {
		t.Fatal("12-fault line not disabled under MS-ECC")
	}
	var data bitvec.Line
	fill(h, s, 0, 0, data)
	got := h.data.Read(0)
	if v := s.OnReadHit(0, 0, &got); v != Deliver || got != data {
		t.Fatal("MS-ECC did not correct 11 faults")
	}
}

func TestPerLineWriteRegeneratesCheckbits(t *testing.T) {
	h := newHost(t, 2, 1, nil, 1.0)
	s := NewSECDEDPerLine()
	s.Attach(h)
	s.Reset(1.0)
	r := xrand.New(2)
	d1 := randomLine(r)
	fill(h, s, 0, 0, d1)
	d2 := randomLine(r)
	h.data.Write(0, d2)
	s.OnWriteHit(0, 0, d2)
	got := h.data.Read(0)
	if v := s.OnReadHit(0, 0, &got); v != Deliver || got != d2 {
		t.Fatal("checkbits stale after write")
	}
}

func TestVoltageRaiseReenablesLines(t *testing.T) {
	// A fault active only at low voltage: the line is disabled at 0.55
	// and reclaimed by a Reset at nominal.
	m := faultmodel.Default()
	sevLow := m.CellFailureProb(0.57, 1.0) // active at v ≤ ~0.57 only
	faults := [][]faultmodel.Fault{{
		{Bit: 1, StuckAt: 1, Severity: sevLow},
		{Bit: 2, StuckAt: 1, Severity: sevLow},
	}}
	h := newHost(t, 2, 1, faults, 0.55)
	s := NewSECDEDPerLine()
	s.Attach(h)
	s.Reset(0.55)
	if !h.tags.Entry(0, 0).Disabled {
		t.Fatal("2-fault line not disabled at 0.55")
	}
	h.data.SetVoltage(1.0)
	s.Reset(1.0)
	if h.tags.Entry(0, 0).Disabled {
		t.Fatal("line not reclaimed at nominal voltage")
	}
}

// TestFLAIRPreTrainedMatchesSECDED: over one fault map, pre-trained FLAIR
// and SECDED-per-line characterize identically and correct identically;
// they differ only on a detected-uncorrectable read, where FLAIR disables
// the line and SECDED-per-line only refetches it.
func TestFLAIRPreTrainedMatchesSECDED(t *testing.T) {
	faults := [][]faultmodel.Fault{
		{stuck(3, 1)},
		{stuck(3, 1), stuck(99, 1)},
		nil,
		{stuck(7, 0), stuck(8, 1), stuck(400, 1)},
	}
	type outcome struct {
		disabled []bool
		counters string
	}
	disabledMap := func(h *testHost) []bool {
		var m []bool
		h.tags.ForEach(func(set, way int, e *cache.Entry) { m = append(m, e.Disabled) })
		return m
	}
	var persistent []outcome
	for _, tc := range []struct {
		s            *PerLine
		name         string
		disableOnDUE bool
	}{
		{NewSECDEDPerLine(), "secded-line", false},
		{NewFLAIR(), "flair", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHost(t, 4, 1, faults, 0.625)
			s := tc.s
			if s.Name() != tc.name {
				t.Fatalf("name %q", s.Name())
			}
			s.Attach(h)
			s.Reset(0.625)
			for set, want := range []bool{false, true, false, true} {
				if h.tags.Entry(set, 0).Disabled != want {
					t.Fatalf("set %d: disabled = %v after characterization, want %v", set, !want, want)
				}
			}
			// Persistent faults only: the 1-fault line's unmasked fault is
			// corrected and delivered.
			var data bitvec.Line
			fill(h, s, 0, 0, data)
			got := h.data.Read(0)
			if v := s.OnReadHit(0, 0, &got); v != Deliver || got != data {
				t.Fatalf("1-fault line: verdict %v, line corrected %v", v, got == data)
			}
			persistent = append(persistent, outcome{disabledMap(h), h.ctr.String()})

			// Two soft errors on the clean line: detected, uncorrectable.
			fill(h, s, 2, 0, data)
			h.data.InjectSoftError(2, 5)
			h.data.InjectSoftError(2, 300)
			got = h.data.Read(2)
			if v := s.OnReadHit(2, 0, &got); v != ErrorMiss {
				t.Fatalf("double soft error: verdict %v, want %v", v, ErrorMiss)
			}
			e := h.tags.Entry(2, 0)
			if e.Valid || e.Disabled != tc.disableOnDUE {
				t.Fatalf("after a detected-uncorrectable read: valid %v disabled %v, want invalid and disabled %v",
					e.Valid, e.Disabled, tc.disableOnDUE)
			}
			wantDisabled := uint64(2)
			if tc.disableOnDUE {
				wantDisabled++
			}
			if h.ctr.Get("protection.error_induced_miss") != 1 || h.ctr.Get("protection.lines_disabled") != wantDisabled {
				t.Fatalf("counters %s: want 1 error-induced miss and %d lines disabled", h.ctr.String(), wantDisabled)
			}
		})
	}
	if len(persistent) != 2 || !slices.Equal(persistent[0].disabled, persistent[1].disabled) ||
		persistent[0].counters != persistent[1].counters {
		t.Fatalf("persistent faults only: SECDED-per-line %+v, FLAIR %+v", persistent[0], persistent[1])
	}
	if persistent[0].counters == "" {
		t.Fatal("no counters recorded; comparison vacuous")
	}
}

func TestFLAIRSteadyStateDisablesOnDetection(t *testing.T) {
	// A masked 2-fault line slips past MBIST if both faults are masked…
	// MBIST uses the oracle here, so emulate a post-training surprise via
	// soft errors instead: two transients on a clean line.
	h := newHost(t, 2, 1, nil, 0.625)
	f := NewFLAIR()
	f.Attach(h)
	f.Reset(0.625)
	var data bitvec.Line
	fill(h, f, 0, 0, data)
	h.data.InjectSoftError(0, 5)
	h.data.InjectSoftError(0, 300)
	got := h.data.Read(0)
	if v := f.OnReadHit(0, 0, &got); v != ErrorMiss {
		t.Fatalf("verdict %v", v)
	}
	if !h.tags.Entry(0, 0).Disabled {
		t.Fatal("FLAIR did not defensively disable after steady-state detection")
	}
}

func TestMarchCharacterizationEquivalentToOracle(t *testing.T) {
	// Resetting with the real March C- pass must produce the identical
	// disable map as the oracle-backed default.
	// Both hosts share one sampled fault map so the comparison is exact.
	fm := faultmodel.NewMap(xrand.New(17), faultmodel.Default(), 256, bitvec.LineBits, 0.55, 1.0)
	mk := func(useMarch bool) *testHost {
		cfg := cache.Config{Sets: 64, Ways: 4, LineBytes: 64}
		h := &testHost{tags: cache.New(cfg), data: sram.New(256, fm, 0.575)}
		s := NewSECDEDPerLine()
		s.UseMarchTest = useMarch
		s.Attach(h)
		s.Reset(0.575)
		return h
	}
	oracle, marchH := mk(false), mk(true)
	disabled := 0
	oracle.tags.ForEach(func(set, way int, e *cache.Entry) {
		if e.Disabled {
			disabled++
		}
		if e.Disabled != marchH.tags.Entry(set, way).Disabled {
			t.Fatalf("(%d,%d): oracle=%v march=%v", set, way, e.Disabled,
				marchH.tags.Entry(set, way).Disabled)
		}
	})
	if disabled == 0 {
		t.Fatal("no disabled lines at 0.575; test vacuous")
	}
	if marchH.ctr.Get("protection.mbist_ops") != 256*10 {
		t.Fatalf("mbist ops = %d, want 2560", marchH.ctr.Get("protection.mbist_ops"))
	}
}
