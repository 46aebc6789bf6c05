// Package faultmodel models low-voltage SRAM cell failures.
//
// The Killi paper consumes 14nm FinFET silicon measurements (Ganapathy et
// al., DAC'17): per-cell failure probabilities for writeability and
// read-disturbance tests across normalized supply voltages (Figure 1) and
// the resulting per-line fault-count distribution (Figure 2). We do not
// have the silicon data, so this package substitutes an analytic model
// calibrated to the paper's published anchor points:
//
//   - at 0.625×VDD and 1 GHz, >95 % of 64-byte lines have fewer than two
//     faults (§3), with a visible population of 1-fault lines (Figure 2);
//   - at 0.600×VDD every technique in Figure 6 still classifies ~100 % of
//     lines, which bounds the ≥3-fault population to near zero;
//   - at 0.575×VDD MS-ECC (corrects 11 errors per line) retains 69.6 % of
//     cache capacity (Table 7), which pins the high-failure regime;
//   - failure probability rises super-exponentially below ~0.675×VDD and
//     is negligible above it (Figure 1);
//   - failures are monotone: a cell failing at voltage v fails at every
//     v' < v, and failing at frequency f fails at every f' > f (§3).
//
// The model is piecewise log-linear between calibrated (voltage, P_cell)
// knots, with a multiplicative frequency factor.
//
// # Fault taxonomy
//
// Sampled fault positions (Map/Resolved) answer *where* cells fail; fault
// classes (ClassSpec, classes.go) answer *how* each failure manifests over
// time: persistent (the paper's model — always stuck while the voltage
// activates it), intermittent (stuck only during fault epochs chosen by a
// deterministic per-(seed, line, cell, epoch) hash stream), aging (a
// monotone per-epoch activation-probability ramp), and transient (Poisson
// strike events that flip a stored bit once and clear on rewrite — a rate
// process over lines, not a sampled-cell attribute). The zero ClassSpec is
// the pure-persistent special case and is bit-identical to the legacy
// Map/Resolved pipeline; ParseClassSpec/ClassSyntax define the
// "persistent | mixed:<spec>" grammar the CLIs accept. See ARCHITECTURE.md
// § Fault taxonomy for the determinism contract.
package faultmodel

import (
	"fmt"
	"math"
	"sort"

	"killi/internal/xrand"
)

// TestKind distinguishes the two silicon test conditions in Figure 1.
type TestKind int

const (
	// ReadDisturb checks for a cell flipping state when the wordline
	// turns on without write data driven.
	ReadDisturb TestKind = iota
	// Writeability checks the ability to change state within the wordline
	// pulse.
	Writeability
)

// String names the test kind.
func (k TestKind) String() string {
	switch k {
	case ReadDisturb:
		return "read-disturb"
	case Writeability:
		return "writeability"
	default:
		return fmt.Sprintf("faultmodel.TestKind(%d)", int(k))
	}
}

// knot is a calibration point of the combined cell-failure curve at 1 GHz.
type knot struct {
	v    float64 // normalized voltage
	logP float64 // log10 of combined cell failure probability
}

// knots1GHz is the combined (read + write) cell failure probability at
// 1 GHz. Between knots the model interpolates linearly in log10 space;
// outside it clamps (the floor represents the detection limit of the
// silicon tests).
var knots1GHz = []knot{
	{0.500, math.Log10(2.0e-1)},
	{0.550, math.Log10(3.0e-2)},
	{0.575, math.Log10(1.0e-2)},
	{0.600, math.Log10(1.2e-3)},
	{0.625, math.Log10(8.0e-5)},
	{0.650, math.Log10(6.0e-6)},
	{0.675, math.Log10(4.0e-7)},
	{0.700, math.Log10(1.0e-8)},
	{0.750, math.Log10(1.0e-10)},
	{0.800, math.Log10(1.0e-12)},
	{1.000, math.Log10(1.0e-14)},
}

// Model evaluates cell failure probabilities. The zero value is the
// calibrated default model.
type Model struct {
	// FreqSlope is the log10 change in failure probability per GHz of
	// frequency increase (failures increase with frequency). The default
	// 1.2 gives roughly a 5× decrease from 1 GHz down to 400 MHz,
	// mirroring the spread of Figure 1's frequency family.
	FreqSlope float64
	// WriteShare is the fraction of the combined failure probability
	// attributed to writeability failures; the remainder is read
	// disturbance. Writeability dominates slightly at low voltage in the
	// silicon data.
	WriteShare float64
}

// Default returns the calibrated default model.
func Default() Model { return Model{FreqSlope: 1.2, WriteShare: 0.6} }

// CheckVoltage rejects a normalized supply voltage outside the plausible
// (0, 2] x VDD range the model is evaluated on, NaN included (interpolating
// at NaN indexes past the calibration knots). It is the one home of the
// rule: every entry point that accepts a voltage calls it.
func CheckVoltage(vNorm float64) error {
	if !(vNorm > 0 && vNorm <= 2) {
		return fmt.Errorf("voltage %g is outside the plausible (0, 2] x VDD range", vNorm)
	}
	return nil
}

func (m Model) freqSlope() float64 {
	if m.FreqSlope == 0 {
		return 1.2
	}
	return m.FreqSlope
}

func (m Model) writeShare() float64 {
	if m.WriteShare == 0 {
		return 0.6
	}
	return m.WriteShare
}

// CellFailureProb returns the probability that a single SRAM cell fails the
// combined (read or write) test at normalized voltage vNorm and frequency
// freqGHz. The result is monotone decreasing in vNorm and monotone
// increasing in freqGHz.
func (m Model) CellFailureProb(vNorm, freqGHz float64) float64 {
	if vNorm <= 0 {
		return 0.5
	}
	logP := interpLog(vNorm)
	logP += m.freqSlope() * (freqGHz - 1.0)
	p := math.Pow(10, logP)
	if p > 0.5 {
		p = 0.5
	}
	return p
}

// TestFailureProb splits the combined probability by test kind for
// rendering Figure 1's two curve families.
func (m Model) TestFailureProb(kind TestKind, vNorm, freqGHz float64) float64 {
	p := m.CellFailureProb(vNorm, freqGHz)
	switch kind {
	case Writeability:
		return p * m.writeShare()
	case ReadDisturb:
		return p * (1 - m.writeShare())
	default:
		panic(fmt.Sprintf("faultmodel: unknown test kind %d", int(kind)))
	}
}

// interpLog interpolates log10(P_cell) at 1 GHz across the calibration
// knots, clamping outside the table.
func interpLog(v float64) float64 {
	ks := knots1GHz
	if v <= ks[0].v {
		return ks[0].logP
	}
	if v >= ks[len(ks)-1].v {
		return ks[len(ks)-1].logP
	}
	i := sort.Search(len(ks), func(i int) bool { return ks[i].v >= v }) // first knot ≥ v
	lo, hi := ks[i-1], ks[i]
	frac := (v - lo.v) / (hi.v - lo.v)
	return lo.logP + frac*(hi.logP-lo.logP)
}

// LineDist is the per-line fault-count distribution of Figure 2.
type LineDist struct {
	P0      float64 // fraction of lines with zero faults
	P1      float64 // exactly one fault
	P2Plus  float64 // two or more faults
	PerCell float64 // the underlying cell probability
}

// LineFaultDist returns the probability of a line of bitsPerLine cells
// having 0, 1, or ≥2 faulty cells under independent per-cell failures.
func (m Model) LineFaultDist(bitsPerLine int, vNorm, freqGHz float64) LineDist {
	p := m.CellFailureProb(vNorm, freqGHz)
	n := float64(bitsPerLine)
	// Compute in log space to stay stable for tiny p.
	logQ := math.Log1p(-p)
	p0 := math.Exp(n * logQ)
	p1 := 0.0
	if p > 0 {
		p1 = math.Exp(math.Log(n) + math.Log(p) + (n-1)*logQ)
	}
	d := LineDist{P0: p0, P1: p1, P2Plus: 1 - p0 - p1, PerCell: p}
	if d.P2Plus < 0 {
		d.P2Plus = 0
	}
	return d
}

// Fault is a sampled stuck-at fault in one cell of a line. How the fault
// manifests over time is a separate, orthogonal label: persistent unless a
// ClassSpec assigns the cell an intermittent or aging class via ClassOf
// (the sampled position and polarity are class-independent).
type Fault struct {
	// Bit is the cell's bit position within the line.
	Bit int
	// StuckAt is the value the cell always returns (0 or 1). A fault is
	// masked whenever the stored data bit equals StuckAt.
	StuckAt uint
	// Severity encodes the fault's activation threshold: the fault is
	// active at voltage v (and the map's generation frequency) whenever
	// CellFailureProb(v) ≥ Severity. Lower severity ⇒ activates at higher
	// voltages too. This realizes the silicon observation that failures
	// are monotone in voltage.
	Severity float64
}

// Map is a sampled fault population for an array of lines, generated at
// a reference (minimum) voltage. Faults for any voltage ≥ the reference are
// the subset whose Severity is within that voltage's failure probability.
// The map records positions and polarities only; with no ClassSpec layered
// on top every fault behaves persistently.
//
// The population is stored packed: one flat fault buffer with per-line
// offsets, so a 32K-line map is two allocations instead of one slice per
// faulty line, and whole-map scans walk contiguous memory. A Map is
// immutable after construction and safe to share across goroutines.
type Map struct {
	model   Model
	bits    int
	freqGHz float64
	refProb float64
	faults  []Fault // line-major, sorted by bit within a line
	offsets []int32 // line i's faults are faults[offsets[i]:offsets[i+1]]
}

// NewMap samples a fault population for lines × bitsPerLine cells at
// reference voltage refV (the lowest voltage the map can serve) and
// frequency freqGHz.
func NewMap(r *xrand.Rand, m Model, lines, bitsPerLine int, refV, freqGHz float64) *Map {
	if lines < 0 || bitsPerLine <= 0 {
		panic("faultmodel: invalid map dimensions")
	}
	refProb := m.CellFailureProb(refV, freqGHz)
	fm := &Map{
		model:   m,
		bits:    bitsPerLine,
		freqGHz: freqGHz,
		refProb: refProb,
		offsets: make([]int32, lines+1),
	}
	geo := xrand.NewGeometric(refProb, bitsPerLine)
	for line := 0; line < lines; line++ {
		// Geometric skipping through the line's cells.
		for bit := geo.Draw(r); bit < bitsPerLine; {
			fm.faults = append(fm.faults, Fault{
				Bit:      bit,
				StuckAt:  uint(r.Uint64() & 1),
				Severity: r.Float64() * refProb,
			})
			skip := geo.Draw(r)
			if skip >= bitsPerLine { // avoid overflow on the index addition
				break
			}
			bit += skip + 1
		}
		fm.offsets[line+1] = int32(len(fm.faults))
	}
	return fm
}

// NewMapExplicit builds a map from an explicit per-line fault list, for
// tests and controlled experiments. A fault with Severity 0 is active at
// every voltage; Severity p is active wherever CellFailureProb(v) ≥ p.
func NewMapExplicit(m Model, bitsPerLine int, freqGHz float64, perLine [][]Fault) *Map {
	if bitsPerLine <= 0 {
		panic("faultmodel: invalid map dimensions")
	}
	for _, faults := range perLine {
		for _, f := range faults {
			if f.Bit < 0 || f.Bit >= bitsPerLine {
				panic(fmt.Sprintf("faultmodel: fault bit %d out of range", f.Bit))
			}
		}
	}
	fm := &Map{
		model:   m,
		bits:    bitsPerLine,
		freqGHz: freqGHz,
		refProb: m.CellFailureProb(0, freqGHz),
		offsets: make([]int32, len(perLine)+1),
	}
	for i, faults := range perLine {
		fm.faults = append(fm.faults, faults...)
		fm.offsets[i+1] = int32(len(fm.faults))
	}
	return fm
}

// Lines returns the number of lines covered by the map.
func (fm *Map) Lines() int { return len(fm.offsets) - 1 }

// BitsPerLine returns the per-line cell count.
func (fm *Map) BitsPerLine() int { return fm.bits }

// AllFaults returns every sampled fault of a line (active at the reference
// voltage). The result aliases the map's packed storage and must not be
// modified.
func (fm *Map) AllFaults(line int) []Fault {
	return fm.faults[fm.offsets[line]:fm.offsets[line+1]:fm.offsets[line+1]]
}

// CountAtVoltage returns how many lines have exactly 0, exactly 1, and ≥2
// active faults at vNorm — the empirical Figure 2 distribution.
func (fm *Map) CountAtVoltage(vNorm float64) (zero, one, twoPlus int) {
	p := fm.model.CellFailureProb(vNorm, fm.freqGHz)
	for line := 0; line < fm.Lines(); line++ {
		n := 0
		for _, f := range fm.AllFaults(line) {
			if f.Severity <= p {
				n++
			}
		}
		switch {
		case n == 0:
			zero++
		case n == 1:
			one++
		default:
			twoPlus++
		}
	}
	return zero, one, twoPlus
}

// Resolved is a read-only view of a Map with the active-fault decision
// pre-computed at one voltage: per-line active fault sets in one packed
// buffer. Hot paths (the SRAM read
// fault application, scheme classification checks) index dense slices
// instead of re-filtering by severity per access. A Resolved is immutable
// and safe to share across goroutines.
type Resolved struct {
	voltage float64
	faults  []Fault // line-major active faults at voltage
	offsets []int32
}

// Resolve computes the voltage-resolved view of the map at vNorm. At or
// below the reference voltage the view shares the map's packed buffers;
// above it the active subset is filtered once into a fresh packed buffer.
func (fm *Map) Resolve(vNorm float64) *Resolved {
	p := fm.model.CellFailureProb(vNorm, fm.freqGHz)
	lines := fm.Lines()
	r := &Resolved{voltage: vNorm}
	if p >= fm.refProb {
		r.faults, r.offsets = fm.faults, fm.offsets
	} else {
		r.offsets = make([]int32, lines+1)
		for line := 0; line < lines; line++ {
			for _, f := range fm.AllFaults(line) {
				if f.Severity <= p {
					r.faults = append(r.faults, f)
				}
			}
			r.offsets[line+1] = int32(len(r.faults))
		}
	}
	return r
}

// Voltage returns the voltage the view was resolved at.
func (r *Resolved) Voltage() float64 { return r.voltage }

// Lines returns the number of lines covered by the view.
func (r *Resolved) Lines() int { return len(r.offsets) - 1 }

// LineFaults returns line i's active faults. The result aliases the view's
// packed storage and must not be modified.
func (r *Resolved) LineFaults(i int) []Fault {
	return r.faults[r.offsets[i]:r.offsets[i+1]:r.offsets[i+1]]
}

// LineCount returns the number of active faults in line i.
func (r *Resolved) LineCount(i int) int { return int(r.offsets[i+1] - r.offsets[i]) }
