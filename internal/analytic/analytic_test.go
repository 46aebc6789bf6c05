package analytic

import (
	"math"
	"testing"

	"killi/internal/faultmodel"
	"killi/internal/xrand"
)

func TestLogChoose(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{5, 2, 10},
		{10, 0, 1},
		{10, 10, 1},
		{523, 1, 523},
	}
	for _, c := range cases {
		got := math.Exp(logChoose(c.n, c.k))
		if math.Abs(got-c.want)/c.want > 1e-9 {
			t.Errorf("C(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
	if !math.IsInf(logChoose(5, 6), -1) || !math.IsInf(logChoose(5, -1), -1) {
		t.Fatal("out-of-range logChoose not -Inf")
	}
}

func TestBinomPMFSumsToOne(t *testing.T) {
	for _, p := range []float64{0.001, 0.1, 0.5, 0.9} {
		sum := 0.0
		for k := 0; k <= 33; k++ {
			sum += binomPMF(33, k, p)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("p=%v: pmf sums to %v", p, sum)
		}
	}
}

func TestBinomEdgeCases(t *testing.T) {
	if binomPMF(10, 0, 0) != 1 || binomPMF(10, 3, 0) != 0 {
		t.Fatal("p=0 pmf wrong")
	}
	if binomPMF(10, 10, 1) != 1 || binomPMF(10, 9, 1) != 0 {
		t.Fatal("p=1 pmf wrong")
	}
	if binomCDF(10, 10, 0.3) != 1 {
		t.Fatal("full-range CDF != 1")
	}
}

func TestSECDEDFailProbMonotone(t *testing.T) {
	prev := 0.0
	for p := 1e-8; p < 0.1; p *= 2 {
		f := secdedFailProb(p)
		if f < prev {
			t.Fatalf("P_fail(SECDED) not monotone at p=%v", p)
		}
		if f < 0 || f > 1 {
			t.Fatalf("P_fail out of range: %v", f)
		}
		prev = f
	}
}

func TestSECDEDFailAgainstDirectSum(t *testing.T) {
	// Cross-check against the literal paper formula Σ_{k=3}^{523}.
	for _, p := range []float64{1e-4, 1e-3, 1e-2} {
		direct := 0.0
		for k := 3; k <= secdedWordBits; k++ {
			direct += binomPMF(secdedWordBits, k, p)
		}
		got := secdedFailProb(p)
		if math.Abs(got-direct) > 1e-9 {
			t.Fatalf("p=%v: %v vs direct %v", p, got, direct)
		}
	}
}

func TestSegProbsConsistent(t *testing.T) {
	for _, p := range []float64{1e-4, 1e-3, 1e-2, 0.05} {
		p0, pEven, pOdd := segProbs(p)
		// p0 + pEven + pOdd + P(exactly 1) = 1.
		p1 := binomPMF(segmentBits, 1, p)
		if math.Abs(p0+pEven+pOdd+p1-1) > 1e-9 {
			t.Fatalf("p=%v: segment probabilities inconsistent", p)
		}
	}
}

func TestKilliFailIsProductAndTiny(t *testing.T) {
	p := 8e-5 // ≈0.625×VDD
	kf := killiFailProb(p)
	if kf != secdedFailProb(p)*segParityFailProb(p) {
		t.Fatal("Killi fail not the §5.3 product")
	}
	if kf > 1e-6 {
		t.Fatalf("P_fail(Killi) = %v at 0.625×VDD, want ≈ 0", kf)
	}
}

func TestCoverageAnchors(t *testing.T) {
	m := faultmodel.Default()
	pc := func(v float64) float64 { return m.CellFailureProb(v, 1.0) }

	// Figure 6: at 0.6×VDD every technique classifies essentially all
	// lines.
	for name, cov := range map[string]float64{
		"killi":  KilliCoverage(pc(0.600)),
		"flair":  FLAIRCoverage(pc(0.600)),
		"dected": DetectCoverage(533, 3, pc(0.600)),
		"msecc":  DetectCoverage(1018, 11, pc(0.600)),
	} {
		if cov < 99 {
			t.Errorf("%s coverage %.2f%% at 0.600×VDD, want ≥ 99%%", name, cov)
		}
	}

	// Below 0.6 only Killi and FLAIR stay near 100%: at 0.55 the gap to
	// SECDED/DECTED must be pronounced.
	p55 := pc(0.55)
	killi, flair := KilliCoverage(p55), FLAIRCoverage(p55)
	secded := DetectCoverage(secdedWordBits, 2, p55)
	dected := DetectCoverage(533, 3, p55)
	if killi < 99 || flair < 99 {
		t.Fatalf("Killi/FLAIR coverage at 0.55: %.2f / %.2f, want ≥ 99%%", killi, flair)
	}
	if secded > 50 || dected > 80 {
		t.Fatalf("SECDED/DECTED coverage at 0.55: %.2f / %.2f — should have collapsed", secded, dected)
	}
	if killi < dected || dected < secded {
		t.Fatal("coverage ordering violated: Killi ≥ DECTED ≥ SECDED expected")
	}
}

func TestCoverageCurveShape(t *testing.T) {
	m := faultmodel.Default()
	vs := []float64{0.50, 0.55, 0.575, 0.60, 0.625, 0.65, 0.70}
	curve := CoverageCurve(vs, func(v float64) float64 { return m.CellFailureProb(v, 1.0) })
	if len(curve) != len(vs) {
		t.Fatal("curve length wrong")
	}
	for i := 1; i < len(curve); i++ {
		// The plain detect-up-to-d coverages are binomial CDFs: monotone
		// non-decreasing in voltage. (Killi's joint-failure product is
		// allowed to wiggle at extreme fault rates — detection gets
		// easier again when every segment has errors.)
		if curve[i].SECDED+1e-9 < curve[i-1].SECDED ||
			curve[i].DECTED+1e-9 < curve[i-1].DECTED ||
			curve[i].MSECC+1e-9 < curve[i-1].MSECC {
			t.Fatalf("coverage not monotone between %.3f and %.3f", vs[i-1], vs[i])
		}
	}
	for _, pt := range curve {
		if pt.Killi < pt.SECDED-1e-9 {
			t.Fatalf("v=%.3f: Killi (%.3f) below bare SECDED (%.3f)", pt.Voltage, pt.Killi, pt.SECDED)
		}
		// The paper's headline: Killi stays near 100% everywhere.
		if pt.Killi < 99 {
			t.Fatalf("v=%.3f: Killi coverage %.3f%%", pt.Voltage, pt.Killi)
		}
	}
}

func TestKilliAreaMatchesPaperKB(t *testing.T) {
	// Paper §5.4: "For a 2MB L2, the Killi area overhead ranges from
	// 24.6KB (1:256) to 34.25KB (1:16)".
	g := PaperL2()
	if got := KilliBytesForRatio(g, 256); math.Abs(got-24.6) > 0.1 {
		t.Fatalf("Killi 1:256 = %.2f KB, paper 24.6 KB", got)
	}
	if got := KilliBytesForRatio(g, 16); math.Abs(got-34.25) > 0.1 {
		t.Fatalf("Killi 1:16 = %.2f KB, paper 34.25 KB", got)
	}
}

func TestTable5MatchesPaper(t *testing.T) {
	want := map[string]struct {
		ratio float64
		tol   float64
	}{
		"DECTED":      {1.9, 0.1},
		"MS-ECC":      {18, 2.0}, // paper's published density; rounding is coarse
		"SECDED":      {1.0, 0.001},
		"Killi 1:256": {0.51, 0.01},
		"Killi 1:128": {0.52, 0.01},
		"Killi 1:64":  {0.55, 0.01},
		"Killi 1:32":  {0.60, 0.01},
		"Killi 1:16":  {0.71, 0.01},
	}
	for _, e := range Table5(PaperL2()) {
		w, ok := want[e.Scheme]
		if !ok {
			t.Fatalf("unexpected scheme %q", e.Scheme)
		}
		if math.Abs(e.Ratio-w.ratio) > w.tol {
			t.Errorf("%s ratio = %.3f, paper %.2f", e.Scheme, e.Ratio, w.ratio)
		}
	}
	// Percent-over-L2 row: SECDED 2.3%, DECTED 4.3%, Killi 1.2–1.67%.
	for _, e := range Table5(PaperL2()) {
		switch e.Scheme {
		case "SECDED":
			if math.Abs(e.PctOverL2-2.3) > 0.1 {
				t.Errorf("SECDED %% over L2 = %.2f, paper 2.3", e.PctOverL2)
			}
		case "DECTED":
			if math.Abs(e.PctOverL2-4.3) > 0.1 {
				t.Errorf("DECTED %% over L2 = %.2f, paper 4.3", e.PctOverL2)
			}
		case "Killi 1:256":
			if math.Abs(e.PctOverL2-1.2) > 0.05 {
				t.Errorf("Killi 1:256 %% = %.2f, paper 1.2", e.PctOverL2)
			}
		case "Killi 1:16":
			if math.Abs(e.PctOverL2-1.67) > 0.05 {
				t.Errorf("Killi 1:16 %% = %.2f, paper 1.67", e.PctOverL2)
			}
		}
	}
}

func TestTable4MatchesPaper(t *testing.T) {
	want := map[string]map[int]float64{
		"DECTED": {256: 0.51, 128: 0.53, 64: 0.55, 32: 0.61, 16: 0.71},
		"TECQED": {256: 0.52, 128: 0.54, 64: 0.58, 32: 0.66, 16: 0.82},
		"6EC7ED": {256: 0.53, 128: 0.56, 64: 0.62, 32: 0.74, 16: 0.97},
	}
	for _, row := range Table4(PaperL2()) {
		for r, got := range row.Ratios {
			if math.Abs(got-want[row.Code][r]) > 0.015 {
				t.Errorf("%s 1:%d = %.3f, paper %.2f", row.Code, r, got, want[row.Code][r])
			}
		}
	}
}

func TestTable6MatchesPaper(t *testing.T) {
	want := map[string]float64{
		"DECTED":      43.7,
		"MS-ECC":      55.3,
		"FLAIR":       42.6,
		"Killi 1:256": 40.3,
		"Killi 1:128": 40.7,
		"Killi 1:64":  41.1,
		"Killi 1:32":  41.7,
		"Killi 1:16":  42.4,
	}
	for _, e := range Table6(0.625) {
		if math.Abs(e.Power-want[e.Scheme]) > 0.5 {
			t.Errorf("%s power = %.2f%%, paper %.1f%%", e.Scheme, e.Power, want[e.Scheme])
		}
	}
}

func TestPowerSavingHeadline(t *testing.T) {
	// "an 8-CU GPU with Killi can reduce the power consumption of the L2
	// cache by 59.3%" — 100 − 40.7 for the 1:128 configuration.
	saving := PowerSavingVsNominal(PowerKilli(0.625, 128))
	if math.Abs(saving-59.3) > 0.6 {
		t.Fatalf("headline saving = %.1f%%, paper 59.3%%", saving)
	}
}

func TestPowerOrdering(t *testing.T) {
	// MS-ECC is the most power-hungry; Killi configurations are the
	// least; bigger ECC caches burn more than smaller ones.
	v := 0.625
	if !(PowerMSECC(v) > PowerDECTED(v) && PowerDECTED(v) > PowerFLAIR(v)) {
		t.Fatal("existing-scheme power ordering wrong")
	}
	if !(PowerKilli(v, 16) > PowerKilli(v, 64) && PowerKilli(v, 64) > PowerKilli(v, 256)) {
		t.Fatal("Killi power not monotone in ECC cache size")
	}
	if PowerKilli(v, 256) >= PowerFLAIR(v) {
		t.Fatal("smallest Killi not below FLAIR")
	}
}

func TestTable7MatchesPaperShape(t *testing.T) {
	m := faultmodel.Default()
	rows := Table7(PaperL2(), func(v float64) float64 { return m.CellFailureProb(v, 1.0) })
	if len(rows) != 2 {
		t.Fatal("Table 7 must have two voltage rows")
	}
	r600, r575 := rows[0], rows[1]
	// Paper: 99.8% capacity at 0.6, 69.6% at 0.575 — we require the
	// calibrated fault model to land in the same regime.
	if r600.CapacityTarget < 99 {
		t.Fatalf("capacity at 0.600 = %.2f%%, paper 99.8%%", r600.CapacityTarget)
	}
	if r575.CapacityTarget < 55 || r575.CapacityTarget > 85 {
		t.Fatalf("capacity at 0.575 = %.2f%%, paper 69.6%%", r575.CapacityTarget)
	}
	// Killi area advantage: large at 0.6 (paper 17%), smaller at 0.575
	// (paper 65%), and strictly ordered.
	if r600.KilliOverMSECC > 0.30 {
		t.Fatalf("Killi/MS-ECC at 0.600 = %.2f, paper 0.17", r600.KilliOverMSECC)
	}
	if r575.KilliOverMSECC < 0.40 || r575.KilliOverMSECC > 0.80 {
		t.Fatalf("Killi/MS-ECC at 0.575 = %.2f, paper 0.65", r575.KilliOverMSECC)
	}
	if r600.KilliOverMSECC >= r575.KilliOverMSECC {
		t.Fatal("area advantage must shrink as voltage drops")
	}
}

func TestRoundTo(t *testing.T) {
	if roundTo(0.5149, 2) != 0.51 || roundTo(0.715, 2) != 0.72 {
		t.Fatal("roundTo wrong")
	}
}

func TestSegParityFailBounds(t *testing.T) {
	for p := 1e-9; p <= 0.3; p *= 3 {
		f := segParityFailProb(p)
		if f < 0 || f > 1 {
			t.Fatalf("p=%v: seg parity fail %v out of [0,1]", p, f)
		}
	}
}

func TestMonteCarloValidatesKilliFormula(t *testing.T) {
	// At 0.575×VDD-equivalent cell probability, both the closed form and
	// the Monte Carlo estimate of Killi's classification coverage must
	// sit near 100 %, far above bare SECDED's.
	r := xrand.New(77)
	const p = 1e-2
	mc := MonteCarloKilliCoverage(r, p, 40000)
	// The Monte Carlo runs slightly below the closed form (see the
	// independence-assumption note in TestMonteCarloCleanAtOperatingPoint)
	// but must stay near 100 %.
	if mc.Coverage() < 98.5 {
		t.Fatalf("Monte Carlo Killi coverage %.3f%% at p=%v", mc.Coverage(), p)
	}
	formula := KilliCoverage(p)
	if formula < 99.0 {
		t.Fatalf("formula coverage %.3f%%", formula)
	}
	sec := MonteCarloSECDEDDetect(xrand.New(78), p, 40000)
	if sec.Coverage() > mc.Coverage() {
		t.Fatalf("bare SECDED (%.2f%%) beat Killi (%.2f%%)", sec.Coverage(), mc.Coverage())
	}
	// SECDED alone collapses at this fault rate (formula says ~10%
	// counting masked faults ~ half visible: noticeably below 90%).
	if sec.Coverage() > 90 {
		t.Fatalf("bare SECDED coverage %.2f%% did not degrade at p=%v", sec.Coverage(), p)
	}
}

func TestMonteCarloSECDEDMatchesBinomial(t *testing.T) {
	// The SECDED detect-only Monte Carlo must agree with the binomial
	// CDF over visible faults (p/2 per cell after masking).
	r := xrand.New(79)
	const p = 6e-3
	mc := MonteCarloSECDEDDetect(r, p, 60000)
	want := DetectCoverage(512, 2, p/2)
	if diff := mc.Coverage() - want; diff > 0.5 || diff < -0.5 {
		t.Fatalf("MC %.3f%% vs binomial %.3f%%", mc.Coverage(), want)
	}
}

func TestMonteCarloCleanAtOperatingPoint(t *testing.T) {
	// At the paper's 0.625×VDD operating point misclassification is
	// essentially unobservable: the rate is bounded by the ≥3-fault line
	// population (~1e-5) times the joint-failure geometry (~0.2).
	//
	// Reproduction finding: the paper's product formula
	// P_fail(SECDED)·P_fail(Seg.Parity) treats the detectors as
	// independent, but conditioned on a SECDED failure (≥3 errors) the
	// parity-misleading geometry has probability ~0.2, not the tiny
	// unconditional value — so the closed form *underestimates* the
	// true misclassification rate by orders of magnitude. Both are still
	// "≈100 %% coverage" at the rendering precision of Figure 6.
	r := xrand.New(80)
	mc := MonteCarloKilliCoverage(r, 8e-5, 30000)
	if mc.Misclassified > 3 {
		t.Fatalf("%d misclassifications at 0.625×VDD equivalent", mc.Misclassified)
	}
	if mc.Coverage() < 99.99 {
		t.Fatalf("coverage %.4f%%", mc.Coverage())
	}
}

func TestMCResultCoverageEdges(t *testing.T) {
	if (MCResult{}).Coverage() != 100 {
		t.Fatal("empty result coverage")
	}
	if (MCResult{Trials: 4, Misclassified: 1}).Coverage() != 75 {
		t.Fatal("coverage math wrong")
	}
}

func TestMaskedFaultSDCWindowMatchesPaper(t *testing.T) {
	// §5.6.2: "We determined the probability of such a scenario to be
	// 0.003%" at 0.625×VDD. Our calibrated P_cell puts the same closed
	// form in the 0.001–0.01% band.
	got := MaskedFaultSDCProb(8e-5) * 100
	if got < 0.001 || got > 0.01 {
		t.Fatalf("masked-SDC window = %.5f%%, paper reports 0.003%%", got)
	}
	// And the paper's complementary phrasing: 99.997% of lines are safe.
	if safe := 100 - got; safe < 99.99 {
		t.Fatalf("safe fraction %.4f%%", safe)
	}
}

func TestMaskedFaultSDCMonteCarlo(t *testing.T) {
	// Empirical cross-check of the closed form at an exaggerated fault
	// rate (so the window is observable): sample fault pairs and count
	// same-fold-segment, both-masked patterns.
	r := xrand.New(91)
	const p = 5e-3
	const trials = 200000
	hits := 0
	for i := 0; i < trials; i++ {
		// Sample the fault count cheaply.
		n := binomial(r, 512, p)
		if n != 2 {
			continue
		}
		bits := r.Sample(512, 2)
		if bits[0]%4 != bits[1]%4 {
			continue
		}
		// Each fault masked with probability 1/2 independently.
		if coin(r) && coin(r) {
			hits++
		}
	}
	want := MaskedFaultSDCProb(p)
	got := float64(hits) / trials
	if got < want*0.7 || got > want*1.3 {
		t.Fatalf("MC masked-SDC %.3e vs closed form %.3e", got, want)
	}
}

// binomial samples Binomial(n, p) by geometric skipping.
func binomial(r *xrand.Rand, n int, p float64) int {
	count := 0
	g := xrand.NewGeometric(p, n)
	for i := g.Draw(r); i < n; i += g.Draw(r) + 1 {
		count++
	}
	return count
}

// coin draws one fair bit from r.
func coin(r *xrand.Rand) bool { return r.Uint64()&1 == 1 }
