package analytic

import (
	"killi/internal/bitvec"
	"killi/internal/ecc/parity"
	"killi/internal/ecc/secded"
	"killi/internal/xrand"
)

// Monte Carlo validation of the §5.3 closed forms: instead of binomial
// algebra, inject random stuck-at fault patterns into random data and run
// the *real* classification machinery (16-segment interleaved parity +
// SECDED syndrome/global parity + post-correction recheck), counting how
// often the verdict disagrees with the ground-truth fault count.
//
// This is the cross-check the paper cannot print: its Figure 6 comes from
// the formulas alone, while here the formulas and the implementation
// validate each other.

// MCResult summarizes a Monte Carlo coverage estimation.
type MCResult struct {
	Trials int
	// Misclassified counts trials whose classification verdict was wrong:
	// a multi-fault line not flagged for disable, a corrupt line declared
	// clean, or a miscorrection that slipped the recheck.
	Misclassified int
	// ByTrueCount histograms misclassifications by the true number of
	// unmasked faults (index clamped at 4).
	ByTrueCount [5]int
}

// Coverage returns the estimated correct-classification percentage.
func (m MCResult) Coverage() float64 {
	if m.Trials == 0 {
		return 100
	}
	return (1 - float64(m.Misclassified)/float64(m.Trials)) * 100
}

// mcClassifier bundles the real codec machinery for reuse across trials.
type mcClassifier struct {
	code *secded.Code
	p16  parity.Scheme
}

func newMCClassifier() *mcClassifier {
	return &mcClassifier{
		code: secded.NewLine(),
		p16:  parity.NewInterleaved(16),
	}
}

// verdict classifies a corrupted line exactly as Killi's Initial-state FSM
// does, returning the number of faults the classifier believes the line
// has: 0, 1, or 2 (meaning "two or more; disable").
func (c *mcClassifier) verdict(truth, corrupted bitvec.Line, stored16 uint64, check secded.Check) int {
	_, segMis := c.p16.Check(corrupted, stored16)
	syn, gErr := c.code.SyndromeLine(corrupted, check)
	switch {
	case segMis == 0 && syn == 0 && !gErr:
		return 0
	case segMis == 1 && syn != 0 && gErr:
		fixed := corrupted
		res := c.code.DecodeLine(&fixed, check)
		if res.Status != secded.CorrectedData && res.Status != secded.CorrectedCheck {
			return 2
		}
		if _, bad := c.p16.Check(fixed, stored16); bad != 0 {
			return 2 // post-correction recheck caught the alias
		}
		if fixed != truth {
			// Miscorrection that passed every check: a genuine Killi
			// classification failure — the caller scores it.
			return -1
		}
		return 1
	default:
		return 2
	}
}

// MonteCarloKilliCoverage runs trials of Killi's classification at
// per-cell fault probability pCell: sample the line's stuck-at faults,
// generate metadata from true data, corrupt through the fault set, and
// compare the FSM verdict against ground truth.
func MonteCarloKilliCoverage(r *xrand.Rand, pCell float64, trials int) MCResult {
	c := newMCClassifier()
	res := MCResult{Trials: trials}
	geo := xrand.NewGeometric(pCell, bitvec.LineBits)
	for t := 0; t < trials; t++ {
		var data bitvec.Line
		for w := range data {
			data[w] = r.Uint64()
		}
		stored16 := c.p16.Generate(data)
		check := c.code.EncodeLine(data)

		// Sample stuck-at faults over the 512 data cells and apply the
		// unmasked ones.
		corrupted := data
		unmasked := 0
		for bit := geo.Draw(r); bit < bitvec.LineBits; {
			stuckAt := uint(r.Uint64() & 1)
			if data.Bit(bit) != stuckAt {
				corrupted.SetBit(bit, stuckAt)
				unmasked++
			}
			skip := geo.Draw(r)
			if skip >= bitvec.LineBits {
				break
			}
			bit += skip + 1
		}

		got := c.verdict(data, corrupted, stored16, check)
		ok := false
		switch {
		case got == -1:
			ok = false // silent miscorrection
		case unmasked == 0:
			ok = got == 0
		case unmasked == 1:
			ok = got == 1
		default:
			ok = got == 2
		}
		if !ok {
			res.Misclassified++
			idx := unmasked
			if idx > 4 {
				idx = 4
			}
			res.ByTrueCount[idx]++
		}
	}
	return res
}

// MonteCarloSECDEDDetect estimates the detect-only coverage of bare SECDED
// (classify correctly iff the visible fault count is ≤ 2), the Figure 6
// SECDED curve, empirically.
func MonteCarloSECDEDDetect(r *xrand.Rand, pCell float64, trials int) MCResult {
	res := MCResult{Trials: trials}
	geo := xrand.NewGeometric(pCell, bitvec.LineBits)
	for t := 0; t < trials; t++ {
		unmasked := 0
		for bit := geo.Draw(r); bit < bitvec.LineBits; {
			if r.Uint64()&1 == 0 {
				unmasked++
			}
			skip := geo.Draw(r)
			if skip >= bitvec.LineBits {
				break
			}
			bit += skip + 1
		}
		if unmasked > 2 {
			res.Misclassified++
			idx := unmasked
			if idx > 4 {
				idx = 4
			}
			res.ByTrueCount[idx]++
		}
	}
	return res
}
