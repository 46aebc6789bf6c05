package protection

import (
	"killi/internal/bitvec"
	"killi/internal/cache"
	"killi/internal/ecc"
	"killi/internal/ecc/olsc"
	"killi/internal/march"
	"killi/internal/stats"
)

// Pre-interned handles for the schemes' counters.
var (
	cCorrectedReads     = stats.Intern("protection.corrected_reads")
	cErrorInducedMiss   = stats.Intern("protection.error_induced_miss")
	cLinesDisabled      = stats.Intern("protection.lines_disabled")
	cMBISTOps           = stats.Intern("protection.mbist_ops")
	cCapacitySacrificed = stats.Intern("protection.capacity_lines_sacrificed")
)

// None is the fault-free baseline scheme: no metadata, every read trusted.
// It models the paper's "baseline fault-free system operating at nominal
// VDD" when paired with a nominal-voltage data array.
type None struct{ h Host }

// NewNone returns the no-protection scheme.
func NewNone() *None { return &None{} }

// Name implements Scheme.
func (n *None) Name() string { return "none" }

// Attach implements Scheme.
func (n *None) Attach(h Host) { n.h = h }

// Reset implements Scheme.
func (n *None) Reset(vNorm float64) {}

// VictimFunc implements Scheme.
func (n *None) VictimFunc() cache.VictimFunc { return nil }

// OnFill implements Scheme.
func (n *None) OnFill(set, way int, data bitvec.Line) {}

// OnReadHit implements Scheme.
func (n *None) OnReadHit(set, way int, data *bitvec.Line) Verdict { return Deliver }

// OnWriteHit implements Scheme.
func (n *None) OnWriteHit(set, way int, data bitvec.Line) {}

// OnEvict implements Scheme.
func (n *None) OnEvict(set, way int) {}

// PerLine protects every line with one code's checkbits and relies on an
// MBIST pre-characterization pass: at Reset, every line whose active fault
// count exceeds the code's correction strength is disabled (the paper's
// "one bit per L2 cache line to enable disabling lines").
//
// With SECDED this is the conventional SECDED-per-line LV design and,
// with one extra rule, pre-trained FLAIR (NewFLAIR); with DECTED it is the
// paper's DECTED comparison; with OLSC(11) it is MS-ECC.
type PerLine struct {
	// UseMarchTest makes Reset characterize the array with a real March
	// C- MBIST pass (internal/march) instead of the simulator's fault
	// oracle. The two are provably equivalent for stuck-at faults (see
	// TestMarchMatchesOracle); the flag exists to run the actual
	// machinery the paper's baselines depend on.
	UseMarchTest bool
	// InArrayCheckbits models MS-ECC's capacity-for-reliability layout:
	// below the fault knee the checkbits live in the data array itself,
	// so each data way is paired with a sacrificed check way (half the
	// capacity, the Table 7 "1018-bit codeword" = data line + check
	// line), and a pair is disabled when the faults across BOTH lines
	// exceed the code's strength. At nominal voltage the code is
	// unnecessary and the full capacity returns.
	InArrayCheckbits bool

	name  string
	limit int // the code's correction strength: more faults disable a line
	read  func(data *bitvec.Line, payload bitvec.Line, decode bool) ecc.Reading
	// disableOnDetect disables a line on a detected-uncorrectable read
	// instead of only refetching it (FLAIR's steady-state rule).
	disableOnDetect bool
	h               Host
}

// NewSECDEDPerLine returns the conventional SECDED-per-line scheme
// (disables lines with ≥2 LV faults).
func NewSECDEDPerLine() *PerLine {
	return &PerLine{name: "secded-line", limit: 1, read: ecc.ReadSECDED}
}

// NewFLAIR returns Qureshi & Chishti's FLAIR (DSN'13) as the paper's
// Figure 4/5 runs it: "we skip training for the simulations with FLAIR and
// pre-train their DFH bits". Pre-trained FLAIR is SECDED per line with
// ≥2-fault lines disabled from the first cycle, plus one rule: a
// detected-uncorrectable read means the characterization missed the line
// (a masked fault unmasked, or a soft error on a 1-fault line, §2.3), so
// the line is disabled defensively rather than only refetched.
func NewFLAIR() *PerLine {
	return &PerLine{name: "flair", limit: 1, read: ecc.ReadSECDED, disableOnDetect: true}
}

// NewDECTEDPerLine returns the DECTED-per-line scheme (disables ≥3 faults).
func NewDECTEDPerLine() *PerLine {
	return &PerLine{name: "dected-line", limit: 2, read: ecc.ReadDECTED}
}

// NewMSECC returns the MS-ECC scheme: OLSC correcting up to 11 errors per
// line, disabling codewords with ≥12 faults. Its 506 checkbits per line are
// the paper's 18× area ratio (Table 5); at low voltage they are stored in
// the data array itself, sacrificing every other way (the scheme's
// capacity-for-reliability tradeoff).
func NewMSECC() *PerLine {
	return &PerLine{name: "msecc", limit: 11, InArrayCheckbits: true, read: readMSECC}
}

// readMSECC reads a line through MS-ECC's OLSC(11).
func readMSECC(data *bitvec.Line, payload bitvec.Line, decode bool) ecc.Reading {
	return ecc.ReadOLSC(olsc.NewLine(11), data, payload, decode)
}

// Name implements Scheme.
func (p *PerLine) Name() string { return p.name }

// Attach implements Scheme.
func (p *PerLine) Attach(h Host) { p.h = h }

// Reset implements Scheme: the MBIST pre-characterization pass. Lines with
// more active faults than the code corrects are disabled; every other
// line is enabled (and re-enabled if a voltage raise deactivated faults).
//
// By default the fault counts come from the simulator's oracle (which is
// what a complete MBIST pass would report); with UseMarchTest set, an
// actual March C- sequence runs against the data array instead.
func (p *PerLine) Reset(vNorm float64) {
	tags := p.h.Tags()
	data := p.h.Data()
	ctr := p.h.Stats()
	var res march.Result
	if p.UseMarchTest {
		res = march.CMinus(data, tags.Config().Lines())
		ctr.AddC(cMBISTOps, res.Ops)
	}
	// Below the Figure 1 fault knee an InArrayCheckbits scheme switches to
	// its low-voltage layout: each data way pairs with a sacrificed check
	// way holding its OLSC bits, and the enable decision covers the whole
	// codeword. Above the knee faults are negligible, the code is off, and
	// the full capacity returns.
	ways := tags.Config().Ways
	paired := p.InArrayCheckbits && vNorm < 0.7 && ways >= 2
	// Direct set iteration with one fault-count query per set: a per-line
	// ForEach closure and map-index translation are measurable across the
	// 32K-line pass every run makes, as in Killi's Reset. The counts live
	// on the stack unless a set is wider than the buffer.
	var buf [32]int
	counts := buf[:]
	if ways > len(buf) {
		counts = make([]int, ways)
	}
	counts = counts[:ways]
	for set := 0; set < tags.Config().Sets; set++ {
		first := tags.LineID(set, 0)
		if p.UseMarchTest {
			for w := range counts {
				counts[w] = res.FaultCount(first + w)
			}
		} else {
			data.ActiveFaultCounts(first, counts)
		}
		es := tags.Set(set)
		for way := range es {
			e := &es[way]
			e.Valid = false
			switch {
			case !paired:
				e.Disabled = counts[way] > p.limit
			case way >= ways/2:
				// Check way: stores the partner's checkbits, never data.
				e.Disabled = true
				ctr.IncC(cCapacitySacrificed)
				continue
			default:
				e.Disabled = counts[way]+counts[way+ways/2] > p.limit
			}
			if e.Disabled {
				ctr.IncC(cLinesDisabled)
			}
		}
	}
}

// VictimFunc implements Scheme.
func (p *PerLine) VictimFunc() cache.VictimFunc { return nil }

// OnFill implements Scheme. Checkbits are a pure function of the line,
// which the data array already holds, so a fill records nothing.
func (p *PerLine) OnFill(set, way int, data bitvec.Line) {}

// OnReadHit implements Scheme. Checkbits are derived on demand from the
// payload the controller wrote, only when the read-back mismatches it. A
// clean read hit is an 8-word compare with no code work, and since every
// code reads its own payload as NoError, the outcome is identical to
// decoding every read.
func (p *PerLine) OnReadHit(set, way int, data *bitvec.Line) Verdict {
	truth := p.h.Data().ReadTrue(p.h.Tags().LineID(set, way))
	if *data == truth {
		// Zero syndrome by construction: decoding would report NoError.
		return Deliver
	}
	switch p.read(data, truth, true) {
	case ecc.NoError:
		return Deliver
	case ecc.Corrected, ecc.GlobalFlip:
		// The decoder's word: a GlobalFlip delivers the line as read.
		p.h.Stats().IncC(cCorrectedReads)
		return Deliver
	default:
		// Detected, uncorrectable: write-through cache ⇒ invalidate and
		// refetch.
		p.h.Stats().IncC(cErrorInducedMiss)
		if p.disableOnDetect {
			p.h.Tags().Entry(set, way).Disabled = true
			p.h.Stats().IncC(cLinesDisabled)
		}
		p.h.Tags().Invalidate(set, way)
		return ErrorMiss
	}
}

// OnWriteHit implements Scheme; see OnFill.
func (p *PerLine) OnWriteHit(set, way int, data bitvec.Line) {}

// OnEvict implements Scheme.
func (p *PerLine) OnEvict(set, way int) {}
