package killi

import (
	"testing"

	"killi/internal/faultmodel"
	"killi/internal/obs"
	"killi/internal/protection"
	"killi/internal/xrand"
)

// TestObsStateConstantsMatch pins the obs package's duplicated DFH state
// indices to this package's encoding. obs cannot import killi (killi
// reports through protection.Host, whose package imports obs), so the
// values are duplicated there — this cross-package test is what keeps them
// from drifting.
func TestObsStateConstantsMatch(t *testing.T) {
	if int(Stable0) != obs.StateStable0 || int(Initial) != obs.StateInitial ||
		int(Stable1) != obs.StateStable1 || int(Disabled) != obs.StateDisabled {
		t.Fatalf("obs state indices diverged from killi DFH encoding: killi %d/%d/%d/%d, obs %d/%d/%d/%d",
			Stable0, Initial, Stable1, Disabled,
			obs.StateStable0, obs.StateInitial, obs.StateStable1, obs.StateDisabled)
	}
	if obs.NumStates != int(Disabled)+1 {
		t.Fatalf("obs.NumStates = %d, want %d", obs.NumStates, int(Disabled)+1)
	}
}

// TestSchemeEmitsObservations drives a scheme with a Collector attached and
// checks that Reset and every DFH transition are reported with the right
// cycle, line, and states.
func TestSchemeEmitsObservations(t *testing.T) {
	h := newHost(t, 4, 4, nil, 0.625)
	col := obs.NewCollector()
	h.obs = col
	h.cycle = 100
	k := attach(h, Config{Ratio: 1}, 0.625)

	if len(col.Resets()) != 1 {
		t.Fatalf("recorded %d resets, want 1", len(col.Resets()))
	}
	if r := col.Resets()[0]; r.Cycle != 100 || r.Voltage != 0.625 || r.Lines != 16 {
		t.Fatalf("reset %+v, want cycle 100, voltage 0.625, 16 lines", r)
	}
	if p := col.Populations(); p[obs.StateInitial] != 16 {
		t.Fatalf("post-reset populations %v, want all 16 Initial", p)
	}

	// A clean read classifies (0,0) Initial→Stable0 and must emit exactly
	// that transition at the host's current cycle.
	data := randomLine(xrand.New(1))
	fill(h, k, 0, 0, data)
	h.cycle = 250
	got := h.data.Read(h.tags.LineID(0, 0))
	if v := k.OnReadHit(0, 0, &got); v != protection.Deliver {
		t.Fatalf("clean read verdict %v", v)
	}
	trs := col.Transitions()
	if len(trs) != 1 {
		t.Fatalf("recorded %d transitions, want 1", len(trs))
	}
	tr := trs[0]
	if tr.Cycle != 250 || tr.Line != h.tags.LineID(0, 0) ||
		tr.From != uint8(Initial) || tr.To != uint8(Stable0) {
		t.Fatalf("transition %+v, want cycle 250, line %d, initial→stable0", tr, h.tags.LineID(0, 0))
	}
	if p := col.Populations(); p[obs.StateStable0] != 1 || p[obs.StateInitial] != 15 {
		t.Fatalf("populations %v after classification", p)
	}

	// A second Reset (voltage transition) re-emits and rebuilds the vector.
	h.cycle = 400
	k.Reset(0.55)
	if len(col.Resets()) != 2 || col.Resets()[1].Cycle != 400 || col.Resets()[1].Voltage != 0.55 {
		t.Fatalf("second reset not recorded: %+v", col.Resets())
	}
	if p := col.Populations(); p[obs.StateInitial] != 16 {
		t.Fatalf("populations %v after second reset, want all Initial", p)
	}
}

// TestSchemeObserverDisabledPath pins the disable path: two faults drive a
// line through initial→disabled (via the §4.2 combined-signal rules), and
// the observer sees every hop end at StateDisabled.
func TestSchemeObserverDisabledPath(t *testing.T) {
	faults := [][]faultmodel.Fault{{stuck(100, 1), stuck(300, 1)}}
	h := newHost(t, 4, 4, faults, 0.625)
	col := obs.NewCollector()
	h.obs = col
	k := attach(h, Config{Ratio: 1}, 0.625)
	data := randomLine(xrand.New(3))
	fill(h, k, 0, 0, data)
	var got = h.data.Read(h.tags.LineID(0, 0))
	k.OnReadHit(0, 0, &got)
	if k.dfhOf(0, 0) != Disabled {
		t.Skipf("2-fault line ended %v, not Disabled (masking); transitions=%d",
			k.dfhOf(0, 0), len(col.Transitions()))
	}
	if p := col.Populations(); p[obs.StateDisabled] != 1 {
		t.Fatalf("populations %v, want one Disabled", p)
	}
	last := col.Transitions()[len(col.Transitions())-1]
	if last.To != uint8(Disabled) {
		t.Fatalf("last transition %+v does not end Disabled", last)
	}
}
