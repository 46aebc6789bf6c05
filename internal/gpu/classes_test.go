package gpu

import (
	"testing"

	"killi/internal/faultmodel"
	"killi/internal/killi"
	"killi/internal/protection"
)

func mixedSpec(t *testing.T, s string) faultmodel.ClassSpec {
	t.Helper()
	spec, err := faultmodel.ParseClassSpec(s)
	if err != nil {
		t.Fatalf("ParseClassSpec(%q): %v", s, err)
	}
	return spec
}

// classedConfig is smallConfig with a mixed fault population: intermittent
// and aging faults plus a transient-strike rate high enough that every
// class exercises its path within a short trace.
func classedConfig(t *testing.T, v float64) Config {
	cfg := smallConfig(v)
	cfg.Classes = mixedSpec(t, "mixed:i=0.3@0.5,a=0.1@0.05,t=2e-08")
	return cfg
}

// TestClassedZeroSpecBitIdentity pins the tentpole compatibility contract
// at the system level: a Config whose Classes field is the zero spec runs
// bit-identically — cycles, every counter, disabled lines — to the same
// Config without the field ever having existed (the legacy path).
func TestClassedZeroSpecBitIdentity(t *testing.T) {
	traces := shortTraces("xsbench", 1200)
	legacy := New(smallConfig(0.625), killiFac(killi.Config{Ratio: 64}))
	classed := New(smallConfig(0.625), killiFac(killi.Config{Ratio: 64}))
	// smallConfig leaves Classes zero; assert that explicitly so the test
	// keeps meaning if defaults ever change.
	if !classed.cfg.Classes.IsZero() {
		t.Fatal("smallConfig no longer has a zero ClassSpec")
	}
	d1 := resultDigest(legacy.Run(traces))
	d2 := resultDigest(classed.Run(traces))
	if d1 != d2 {
		t.Fatalf("zero-spec digest %#x differs from legacy %#x", d2, d1)
	}
}

// TestClassedShardCountInvariant extends the determinism gate to a mixed
// fault population: intermittent activation, aging ramp, and the
// transient-strike ticker must all be pure functions of simulated time, so
// the digest is identical at K = 1, 2, 4, 16.
func TestClassedShardCountInvariant(t *testing.T) {
	traces := shortTraces("xsbench", 1200)
	var want uint64
	var wantStrikes uint64
	for i, k := range shardCounts {
		sys := New(classedConfig(t, 0.625), killiFac(killi.Config{Ratio: 64}))
		sys.SetShards(k)
		res := sys.Run(traces)
		d := resultDigest(res)
		if i == 0 {
			want = d
			wantStrikes = res.TransientStrikes
			if wantStrikes == 0 {
				t.Fatal("strike ticker injected nothing; raise the rate so the test exercises it")
			}
			continue
		}
		if d != want {
			t.Fatalf("K=%d classed digest %#x differs from K=1 digest %#x", k, d, want)
		}
		if res.TransientStrikes != wantStrikes {
			t.Fatalf("K=%d strikes %d, K=1 %d", k, res.TransientStrikes, wantStrikes)
		}
	}
}

// TestClassedShardInvariantAcrossRuns covers the cross-kernel state: the
// fault epoch derives from the monotone engine clock and the strike ticker
// stays armed between Runs, so warm-up + measured kernels agree at every
// shard count.
func TestClassedShardInvariantAcrossRuns(t *testing.T) {
	traces := shortTraces("nekbone", 1000)
	run := func(k int) (uint64, uint64) {
		sys := New(classedConfig(t, 0.625), killiFac(killi.Config{Ratio: 64}))
		sys.SetShards(k)
		warm := sys.Run(traces)
		meas := sys.Run(traces)
		return resultDigest(warm), resultDigest(meas)
	}
	w1, m1 := run(1)
	for _, k := range []int{2, 4, 16} {
		wk, mk := run(k)
		if wk != w1 || mk != m1 {
			t.Fatalf("K=%d classed diverges across runs: warm %#x/%#x measured %#x/%#x",
				k, wk, w1, mk, m1)
		}
	}
}

// TestMisclassificationOracle pins the oracle's contract: available exactly
// for DFH schemes, internally consistent, and — under an intermittent
// population — reporting the nonzero misclassification the taxonomy
// exists to measure. The persistent-only control must show no false trust
// of Stable0 lines after the same training.
func TestMisclassificationOracle(t *testing.T) {
	traces := shortTraces("xsbench", 3000)

	if _, ok := New(smallConfig(0.625), fac(protection.NewNone)).misclassification(); ok {
		t.Fatal("oracle claims availability on a scheme without DFH codes")
	}

	check := func(sys *System) Misclass {
		t.Helper()
		res := sys.Run(traces)
		if !res.HasMisclass {
			t.Fatal("killi run did not report misclassification")
		}
		m := res.Misclass
		if m.Lines != sys.L2Lines() {
			t.Fatalf("oracle inspected %d lines, L2 has %d", m.Lines, sys.L2Lines())
		}
		if m.FalseDisable > m.Disabled {
			t.Fatalf("false disables %d exceed disabled %d", m.FalseDisable, m.Disabled)
		}
		if m.TrueFaulty == 0 {
			t.Fatal("fault map produced no capable-faulty lines at 0.625V")
		}
		return m
	}

	cfg := smallConfig(0.625)
	cfg.Classes = mixedSpec(t, "mixed:i=0.5@0.3")
	intermittent := check(New(cfg, killiFac(killi.Config{Ratio: 64})))
	if intermittent.FalseTrust == 0 && intermittent.FalseDisable == 0 {
		t.Fatal("intermittent population trained with zero misclassification; dormant faults should fool the DFH")
	}
}

// TestScrubReclaimsAndChurns pins System.Scrub: unavailable without a
// scheme scrubber, and under an intermittent population reclaiming
// disabled lines whose faults are dormant at scrub time (the churn the
// EXPERIMENTS coverage-vs-scrub sweep quantifies).
func TestScrubReclaims(t *testing.T) {
	if _, ok := New(smallConfig(0.625), fac(protection.NewNone)).Scrub(); ok {
		t.Fatal("Scrub claims availability on a scheme without a scrubber")
	}
	traces := shortTraces("xsbench", 3000)
	cfg := smallConfig(0.625)
	cfg.Classes = mixedSpec(t, "mixed:i=0.6@0.3")
	sys := New(cfg, killiFac(killi.Config{Ratio: 64}))
	res := sys.Run(traces)
	if res.Misclass.Disabled == 0 {
		t.Skip("no lines disabled; cannot exercise the scrubber")
	}
	n, ok := sys.Scrub()
	if !ok {
		t.Fatal("killi scheme does not expose its scrubber")
	}
	if n == 0 {
		t.Fatal("scrubber reclaimed nothing from an intermittent population")
	}
	if got := sys.Stats().Get("killi.scrub_reclaimed"); got != uint64(n) {
		t.Fatalf("scrub counter %d, Scrub returned %d", got, n)
	}
}
