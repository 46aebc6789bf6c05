package sram

import (
	"testing"

	"killi/internal/bitvec"
	"killi/internal/faultmodel"
	"killi/internal/xrand"
)

// TestClassedZeroSpecIdentity pins the bit-identity contract: attaching a
// zero ClassSpec (or never attaching one) leaves every read, fault count,
// and capable count exactly what the legacy persistent model produces.
func TestClassedZeroSpecIdentity(t *testing.T) {
	legacy := newTestArray(t, 9, 1500, 0.55)
	classed := newTestArray(t, 9, 1500, 0.55)
	classed.SetFaultClasses(faultmodel.ClassSpec{}, faultmodel.ClassSeed(9))
	classed.SetFaultEpoch(17)
	r := xrand.New(5)
	for i := 0; i < legacy.Lines(); i++ {
		l := randomLine(r)
		legacy.Write(i, l)
		classed.Write(i, l)
		if legacy.Read(i) != classed.Read(i) {
			t.Fatalf("line %d: zero-spec classed read differs from legacy", i)
		}
		if legacy.ActiveFaultCount(i) != classed.ActiveFaultCount(i) {
			t.Fatalf("line %d: zero-spec active count differs", i)
		}
		if classed.CapableFaultCount(i) != classed.ActiveFaultCount(i) {
			t.Fatalf("line %d: zero-spec capable != active", i)
		}
	}
}

// TestClassedPersistentSubsetBlinks checks the intermittent behaviour end
// to end: under a mixed spec the corrupted-bit set per line is always a
// subset of the persistent model's, varies with the fault epoch, and the
// persistent-classed faults never disappear.
func TestClassedIntermittentBlinks(t *testing.T) {
	const lines = 2000
	spec := faultmodel.ClassSpec{IntermittentFrac: 0.5, IntermittentProb: 0.5}
	seed := faultmodel.ClassSeed(9)
	legacy := newTestArray(t, 9, lines, 0.55)
	a := newTestArray(t, 9, lines, 0.55)
	a.SetFaultClasses(spec, seed)
	r := xrand.New(6)
	blinkOn, blinkOff := false, false
	for i := 0; i < lines; i++ {
		l := randomLine(r)
		legacy.Write(i, l)
		a.Write(i, l)
		legacyDiff := map[int]bool{}
		for _, b := range legacy.Read(i).DiffBits(l) {
			legacyDiff[b] = true
		}
		var prev []int
		for e := uint64(0); e < 8; e++ {
			a.SetFaultEpoch(e)
			diff := a.Read(i).DiffBits(l)
			for _, b := range diff {
				if !legacyDiff[b] {
					t.Fatalf("line %d epoch %d: bit %d corrupt under classes but not legacy", i, e, b)
				}
			}
			if e > 0 {
				if len(diff) > len(prev) {
					blinkOn = true
				}
				if len(diff) < len(prev) {
					blinkOff = true
				}
			}
			prev = diff
		}
		if got, want := a.CapableFaultCount(i), legacy.ActiveFaultCount(i); got != want {
			t.Fatalf("line %d: capable count %d, legacy active %d", i, got, want)
		}
	}
	if !blinkOn || !blinkOff {
		t.Fatalf("no intermittent blinking observed (on=%v off=%v) across %d lines × 8 epochs", blinkOn, blinkOff, lines)
	}
}

// TestClassedAgingRamp checks aging semantics at the array layer: at epoch
// 0 aging faults are invisible to both reads and CapableFaultCount; once
// the ramp saturates they corrupt like persistent faults and count as
// capable.
func TestClassedAgingRamp(t *testing.T) {
	const lines = 2000
	spec := faultmodel.ClassSpec{AgingFrac: 1, AgingRamp: 0.01}
	legacy := newTestArray(t, 9, lines, 0.55)
	a := newTestArray(t, 9, lines, 0.55)
	a.SetFaultClasses(spec, faultmodel.ClassSeed(9))
	r := xrand.New(7)
	for i := 0; i < lines; i++ {
		l := randomLine(r)
		legacy.Write(i, l)
		a.Write(i, l)
		a.SetFaultEpoch(0)
		if got := a.Read(i); got != l {
			t.Fatalf("line %d: aging fault active on a fresh device", i)
		}
		if got := a.CapableFaultCount(i); got != 0 {
			t.Fatalf("line %d: fresh device reports %d capable faults", i, got)
		}
		a.SetFaultEpoch(200) // ramp saturated: min(1, 0.01*200) = 1
		if got, want := a.Read(i), legacy.Read(i); got != want {
			t.Fatalf("line %d: saturated aging read differs from persistent", i)
		}
		if got, want := a.CapableFaultCount(i), legacy.ActiveFaultCount(i); got != want {
			t.Fatalf("line %d: saturated capable %d, want %d", i, got, want)
		}
	}
}

// TestClassedViewMatchesMonolithic pins that classing is keyed by global
// fault-map line indices: a strided bank view over a shared map reads the
// same bits as the corresponding lines of a monolithic classed array.
func TestClassedViewMatchesMonolithic(t *testing.T) {
	const total, banks = 512, 4
	fm := faultmodel.NewMap(xrand.New(21), faultmodel.Default(), total, bitvec.LineBits, 0.5, 1.0)
	res := fm.Resolve(0.55)
	spec := faultmodel.ClassSpec{IntermittentFrac: 0.6, IntermittentProb: 0.4}
	seed := faultmodel.ClassSeed(21)

	mono := newResolved(total, fm, res)
	mono.SetFaultClasses(spec, seed)
	views := make([]*Array, banks)
	for b := range views {
		// ways=1: view line i maps to global line i*banks+b.
		views[b] = NewResolvedView(total/banks, fm, res, 1, banks, b)
		views[b].SetFaultClasses(spec, seed)
	}
	r := xrand.New(22)
	for e := uint64(0); e < 4; e++ {
		mono.SetFaultEpoch(e)
		for _, v := range views {
			v.SetFaultEpoch(e)
		}
		for g := 0; g < total; g++ {
			l := randomLine(r)
			mono.Write(g, l)
			b, i := g%banks, g/banks
			views[b].Write(i, l)
			if mono.Read(g) != views[b].Read(i) {
				t.Fatalf("epoch %d line %d: bank view read differs from monolithic", e, g)
			}
			if mono.CapableFaultCount(g) != views[b].CapableFaultCount(i) {
				t.Fatalf("epoch %d line %d: capable counts differ", e, g)
			}
		}
	}
}
