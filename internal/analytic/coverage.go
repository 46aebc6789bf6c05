// Package analytic implements the paper's closed-form models: the §5.3
// fault-classification coverage equations behind Figure 6, the storage-area
// accounting behind Tables 4, 5 and 7, and the calibrated power model
// behind Table 6.
//
// All binomial arithmetic runs in log space (log-gamma based) so the
// formulas stay stable for per-cell probabilities down to 1e-14.
package analytic

import "math"

// logChoose returns ln C(n, k).
func logChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	ln1, _ := math.Lgamma(float64(n + 1))
	ln2, _ := math.Lgamma(float64(k + 1))
	ln3, _ := math.Lgamma(float64(n - k + 1))
	return ln1 - ln2 - ln3
}

// binomPMF returns P(X = k) for X ~ Binomial(n, p).
func binomPMF(n, k int, p float64) float64 {
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	lp := logChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p)
	return math.Exp(lp)
}

// binomCDF returns P(X <= k).
func binomCDF(n, k int, p float64) float64 {
	if k >= n {
		return 1
	}
	sum := 0.0
	for i := 0; i <= k; i++ {
		sum += binomPMF(n, i, p)
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// Paper constants (§5.3): SECDED protects 523 bits (512 data + 11 check);
// each of the 16 parity segments covers 33 bits (32 data + 1 parity).
const (
	secdedWordBits = 523
	segments       = 16
	segmentBits    = 33
)

// secdedFailProb is P_fail(SECDED): the probability of three or more cell
// failures in the 523-bit protected word (the paper conservatively treats
// every ≥3-error pattern as a SECDED failure).
func secdedFailProb(pCell float64) float64 {
	return 1 - binomCDF(secdedWordBits, 2, pCell)
}

// segProbs returns the paper's per-segment probabilities over a 33-bit
// segment: zero failures, an even (≥2) number, and an odd (≥3) number.
func segProbs(pCell float64) (p0, pEven, pOdd float64) {
	p0 = binomPMF(segmentBits, 0, pCell)
	for i := 2; i <= segmentBits; i += 2 {
		pEven += binomPMF(segmentBits, i, pCell)
	}
	for i := 3; i <= segmentBits; i += 2 {
		pOdd += binomPMF(segmentBits, i, pCell)
	}
	return p0, pEven, pOdd
}

// segParityFailProb is the paper's P_fail(Seg.Parity): the probability that
// the 16-segment interleaved parity fails to flag a multi-bit failure —
// at most one segment with an odd (≥3) count while every other segment has
// zero or an even number of failures. It follows §5.3's published
// formulation:
//
//	P_fail = P¹⁵seg0·PsegOdd + Σᵢ P¹⁶⁻ⁱsegEven·Pⁱseg0
func segParityFailProb(pCell float64) float64 {
	p0, pEven, pOdd := segProbs(pCell)
	pn := func(p float64, n int) float64 {
		// Pⁿ of the paper: binomial over segments.
		return math.Exp(logChoose(segments, n) + float64(n)*safeLog(p) + float64(segments-n)*math.Log1p(-clamp01(p)))
	}
	fail := pn(p0, segments-1) * pOdd
	for i := 0; i <= segments-1; i++ {
		fail += pn(pEven, segments-i) * math.Pow(p0, float64(i))
	}
	return clamp01(fail)
}

func safeLog(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	return math.Log(p)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// killiFailProb is P_fail(Killi) = P_fail(SECDED) × P_fail(Seg.Parity):
// both independent detectors must fail for a line to be misclassified.
func killiFailProb(pCell float64) float64 {
	return secdedFailProb(pCell) * segParityFailProb(pCell)
}

// KilliCoverage is the §5.3 coverage: the percentage of lines whose fault
// count Killi classifies correctly.
func KilliCoverage(pCell float64) float64 {
	return (1 - killiFailProb(pCell)) * 100
}

// DetectCoverage is the coverage of a plain detect-up-to-d code over a
// word of the given bit width: the fraction of lines with at most d
// failures (Figure 6's DECTED d=3, MS-ECC d=11 curves; SECDED alone is
// d=2). Following the paper, no MBIST pre-characterization is assumed.
func DetectCoverage(wordBits, d int, pCell float64) float64 {
	return binomCDF(wordBits, d, pCell) * 100
}

// FLAIRCoverage models FLAIR's training-time coverage: SECDED plus Dual
// Modular Redundancy. A fault pattern escapes only if SECDED fails (≥3
// errors) and every failing cell fails identically in both DMR copies —
// each erroneous bit needs its twin to be faulty (p) and stuck at the
// matching polarity (×1/2).
func FLAIRCoverage(pCell float64) float64 {
	escape := secdedFailProb(pCell) * math.Pow(pCell/2, 3)
	return (1 - clamp01(escape)) * 100
}

// MaskedFaultSDCProb is the §5.6.2 analysis: the probability that a line
// carries a multi-bit masked LV fault confined to one 128-bit fold segment
// — the pattern that trains to b'00 and can silently corrupt when a later
// write unmasks it. The paper reports 0.003 % at 0.625×VDD.
//
// Derivation: exactly two faults (higher counts are negligible at the
// operating point) × both landing in the same 4-way interleaved fold
// segment (127/511) × both masked under the resident data (1/4).
func MaskedFaultSDCProb(pCell float64) float64 {
	pTwo := binomPMF(512, 2, pCell)
	sameSegment := 127.0 / 511.0
	bothMasked := 0.25
	return pTwo * sameSegment * bothMasked
}

// CoveragePoint is one Figure 6 sample.
type CoveragePoint struct {
	Voltage float64
	PCell   float64
	Killi   float64
	FLAIR   float64
	SECDED  float64
	DECTED  float64
	MSECC   float64
}

// CoverageCurve evaluates every Figure 6 series at the given voltages
// using pcell(v) (typically faultmodel.Model.CellFailureProb at 1 GHz).
func CoverageCurve(voltages []float64, pcell func(v float64) float64) []CoveragePoint {
	out := make([]CoveragePoint, 0, len(voltages))
	for _, v := range voltages {
		p := pcell(v)
		out = append(out, CoveragePoint{
			Voltage: v,
			PCell:   p,
			Killi:   KilliCoverage(p),
			FLAIR:   FLAIRCoverage(p),
			SECDED:  DetectCoverage(secdedWordBits, 2, p),
			DECTED:  DetectCoverage(533, 3, p),
			MSECC:   DetectCoverage(1018, 11, p),
		})
	}
	return out
}
