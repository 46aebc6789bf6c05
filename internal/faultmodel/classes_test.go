package faultmodel

import (
	"math"
	"testing"

	"killi/internal/xrand"
)

func TestParseClassSpecRoundTrip(t *testing.T) {
	for _, s := range classExamples {
		spec, err := ParseClassSpec(s)
		if err != nil {
			t.Fatalf("documented example %q does not parse: %v", s, err)
		}
		if got := spec.String(); got != s {
			t.Errorf("ParseClassSpec(%q).String() = %q, want canonical round-trip", s, got)
		}
		again, err := ParseClassSpec(spec.String())
		if err != nil || again != spec {
			t.Errorf("String/Parse round-trip of %q changed the spec: %+v vs %+v (%v)", s, spec, again, err)
		}
	}
}

func TestParseClassSpecDefaults(t *testing.T) {
	for _, s := range []string{"", "persistent", "  persistent  "} {
		spec, err := ParseClassSpec(s)
		if err != nil || !spec.IsZero() {
			t.Errorf("ParseClassSpec(%q) = %+v, %v; want zero spec", s, spec, err)
		}
	}
}

func TestParseClassSpecRejectsMalformed(t *testing.T) {
	for _, s := range []string{
		"mixed:", "mixed:i=0.3", "mixed:i=@0.5", "mixed:i=0.3@",
		"mixed:x=0.3@0.5", "mixed:i=0.3@0.5,i=0.2@0.1", "mixed:i=1.5@0.5",
		"mixed:i=0.3@1.5", "mixed:i=0@0.5", "mixed:i=0.3@0",
		"mixed:t=0", "mixed:t=-1e-9", "mixed:t=2", "mixed:t=NaN",
		"mixed:i=0.7@0.5,a=0.7@0.1", "Mixed:i=0.3@0.5", "intermittent",
		"mixed:i=0.3@0.5,", "persistent,mixed:t=1e-9",
	} {
		if spec, err := ParseClassSpec(s); err == nil {
			t.Errorf("ParseClassSpec(%q) = %+v; want error", s, spec)
		}
	}
}

// FuzzParseClassSpec fuzzes the ClassSyntax grammar: ParseClassSpec never
// panics, and an accepted spec's String re-parses to an equal spec whose
// String is the same canonical spelling.
func FuzzParseClassSpec(f *testing.F) {
	for _, s := range classExamples {
		f.Add(s)
	}
	for _, s := range []string{"", "persistent", "mixed:", "mixed:i=0.3@0.5,i=0.2@0.1",
		"mixed:i=0.7@0.5,a=0.3@0.1", "mixed:t=1e-400", "mixed:a=0x1p-2@+1", "mixed:t=NaN"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseClassSpec(s)
		if err != nil {
			return
		}
		canon := spec.String()
		again, err := ParseClassSpec(canon)
		if err != nil {
			t.Fatalf("ParseClassSpec(%q).String() = %q does not parse: %v", s, canon, err)
		}
		if again != spec || again.String() != canon {
			t.Fatalf("ParseClassSpec(%q) = %+v renders %q, which parses to %+v rendering %q",
				s, spec, canon, again, again.String())
		}
	})
}

// TestClassOfDeterministicPartition pins that class assignment is a pure
// function (stable across calls), respects the configured fractions on a
// large sample, and never returns Transient.
func TestClassOfDeterministicPartition(t *testing.T) {
	spec := ClassSpec{IntermittentFrac: 0.3, IntermittentProb: 0.5, AgingFrac: 0.2, AgingRamp: 0.1}
	seed := ClassSeed(7)
	var counts [3]int
	const n = 20000
	for i := 0; i < n; i++ {
		c := ClassOf(seed, i, i%512, spec)
		if c == Transient {
			t.Fatalf("ClassOf returned Transient for line %d", i)
		}
		if again := ClassOf(seed, i, i%512, spec); again != c {
			t.Fatalf("ClassOf not deterministic at line %d: %v then %v", i, c, again)
		}
		counts[c]++
	}
	for c, want := range map[FaultClass]float64{Intermittent: 0.3, Aging: 0.2, Persistent: 0.5} {
		got := float64(counts[c]) / n
		if math.Abs(got-want) > 0.02 {
			t.Errorf("class %v fraction = %.3f, want ~%.2f", c, got, want)
		}
	}
}

// TestPersistentSpecClassesEverythingPersistent is the classed ≡ legacy
// half of the invariance suite at the model layer: with a zero spec (or a
// transient-only spec, which labels no sampled cell), every sampled fault
// classes as Persistent, and the Map underneath is the very same sampling
// stream — so a classed persistent-only population is the legacy map.
func TestPersistentSpecClassesEverythingPersistent(t *testing.T) {
	fm := NewMap(xrand.New(3), Model{}, 2048, 512, 0.55, 1.0)
	for _, spec := range []ClassSpec{{}, {TransientRate: 1e-8}} {
		counts := ClassCounts(fm, ClassSeed(3), spec)
		if counts[Intermittent] != 0 || counts[Aging] != 0 {
			t.Errorf("spec %v assigned non-persistent classes: %v", spec, counts)
		}
		if counts[Persistent] == 0 {
			t.Errorf("spec %v found no faults at all", spec)
		}
	}
}

// TestActiveInEpochStream pins the activation stream's contract: pure in
// its inputs, epoch-sensitive, probability-respecting, and clamped at the
// ends.
func TestActiveInEpochStream(t *testing.T) {
	seed := ClassSeed(11)
	if ActiveInEpoch(seed, 5, 9, 3, 0) {
		t.Error("p=0 must never activate")
	}
	if !ActiveInEpoch(seed, 5, 9, 3, 1) {
		t.Error("p=1 must always activate")
	}
	const epochs = 10000
	active := 0
	for e := uint64(0); e < epochs; e++ {
		a := ActiveInEpoch(seed, 5, 9, e, 0.25)
		if a != ActiveInEpoch(seed, 5, 9, e, 0.25) {
			t.Fatalf("ActiveInEpoch not deterministic at epoch %d", e)
		}
		if a {
			active++
		}
	}
	if got := float64(active) / epochs; math.Abs(got-0.25) > 0.02 {
		t.Errorf("activation duty cycle = %.3f, want ~0.25", got)
	}
	// Distinct cells and distinct epochs must not blink in lockstep.
	same := 0
	for e := uint64(0); e < 1000; e++ {
		if ActiveInEpoch(seed, 5, 9, e, 0.5) == ActiveInEpoch(seed, 6, 9, e, 0.5) {
			same++
		}
	}
	if same > 600 || same < 400 {
		t.Errorf("neighbouring cells agree in %d/1000 epochs; streams look correlated", same)
	}
}

// TestAgingRampMonotone pins the aging contract: activation probability is
// a monotone ramp that starts at zero and saturates at one, and the aging
// stream is domain-separated from the intermittent stream.
func TestAgingRampMonotone(t *testing.T) {
	spec := ClassSpec{AgingFrac: 1, AgingRamp: 0.01}
	prev := -1.0
	for e := uint64(0); e < 200; e++ {
		p := spec.AgingProb(e)
		if p < prev {
			t.Fatalf("AgingProb not monotone at epoch %d: %g < %g", e, p, prev)
		}
		prev = p
	}
	if spec.AgingProb(0) != 0 {
		t.Error("a fresh device (epoch 0) must see no aging faults")
	}
	if spec.AgingProb(100) != 1 || spec.AgingProb(1000) != 1 {
		t.Error("ramp must saturate at 1")
	}
	seed := ClassSeed(11)
	// At the saturated end, aging faults are always active.
	if !AgingActiveInEpoch(seed, 1, 2, 500, spec) {
		t.Error("saturated aging fault must be active")
	}
	// Mid-ramp, the duty cycle tracks the ramp and differs from the
	// intermittent stream at the same probability.
	agree := 0
	for line := 0; line < 1000; line++ {
		if AgingActiveInEpoch(seed, line, 3, 50, spec) == ActiveInEpoch(seed, line, 3, 50, 0.5) {
			agree++
		}
	}
	if agree > 600 || agree < 400 {
		t.Errorf("aging and intermittent streams agree on %d/1000 cells; want independent", agree)
	}
}

func TestFaultClassString(t *testing.T) {
	want := map[FaultClass]string{
		Persistent: "persistent", Intermittent: "intermittent",
		Aging: "aging", Transient: "transient",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
	if FaultClass(9).String() != "FaultClass(9)" {
		t.Errorf("unknown class renders %q", FaultClass(9).String())
	}
}

// classExamples holds one parsable example per grammar form, covering
// each mixed part alone and all three together.
var classExamples = []string{
	"persistent",
	"mixed:i=0.3@0.5",
	"mixed:a=0.2@0.25",
	"mixed:t=2e-08",
	"mixed:i=0.2@0.25,a=0.1@0.05,t=1e-08",
}
