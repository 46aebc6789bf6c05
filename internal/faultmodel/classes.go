package faultmodel

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// This file extends the sampled stuck-at population with fault *classes*:
// how a sampled fault manifests over time. The persistent-only Map/Resolved
// pipeline is untouched — classes are a pure, stateless labelling layered on
// top of it, so a zero ClassSpec is bit-identical to the legacy model.
//
// Determinism contract: every classed decision is a pure hash of
// (seed, line, cell[, epoch]) — never a consumed RNG stream — so results
// are bit-identical at any engine shard count, sweep parallelism, or
// evaluation order. The per-die seed flows in through ClassSeed(FaultSeed),
// and FaultSeed is already domain-separated per die by DieSeed.

// FaultClass labels how a sampled fault manifests over time.
type FaultClass uint8

const (
	// Persistent faults are the paper's model: active at every access
	// (at voltages that activate them).
	Persistent FaultClass = iota
	// Intermittent faults blink: during each fault epoch the cell is
	// stuck with probability IntermittentProb, decided by a deterministic
	// per-(seed, line, cell, epoch) hash.
	Intermittent
	// Aging faults ramp in: the per-epoch activation probability grows as
	// min(1, AgingRamp x epoch), so a young device sees nothing and an old
	// one sees a persistent fault.
	Aging
	// Transient labels strike events, not sampled cells: Poisson-rate
	// single-cell flips that clear on rewrite. ClassOf never returns it.
	Transient
)

// String returns the class name used in reports and breakdown tables.
func (c FaultClass) String() string {
	switch c {
	case Persistent:
		return "persistent"
	case Intermittent:
		return "intermittent"
	case Aging:
		return "aging"
	case Transient:
		return "transient"
	}
	return fmt.Sprintf("FaultClass(%d)", uint8(c))
}

// ClassSpec parameterizes a classed fault population. The zero value means
// every sampled fault is persistent and no strike process runs — the
// paper's model, and the special case every pre-existing golden pins.
type ClassSpec struct {
	// IntermittentFrac is the fraction of sampled faults (selected by a
	// deterministic per-(line, cell) hash) that are intermittent rather
	// than persistent; each is active during a fault epoch independently
	// with probability IntermittentProb.
	IntermittentFrac float64
	IntermittentProb float64
	// AgingFrac of sampled faults start inactive and ramp in: during fault
	// epoch e such a fault is active with probability min(1, AgingRamp*e),
	// a monotone per-epoch activation ramp.
	AgingFrac float64
	AgingRamp float64
	// TransientRate is the Poisson strike rate in expected single-cell
	// flips per line per cycle. Strikes corrupt the stored payload once
	// and clear on the next write to the line.
	TransientRate float64
}

// IsZero reports whether the spec is the pure-persistent special case.
func (s ClassSpec) IsZero() bool { return s == ClassSpec{} }

// gf renders a float in its shortest exact round-trip form, so
// ParseClassSpec(spec.String()) reproduces the spec bit-for-bit.
func gf(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// String renders the spec in the canonical ClassSyntax form: "persistent"
// for the zero value, otherwise "mixed:" with the present parts in i,a,t
// order and shortest-round-trip floats.
func (s ClassSpec) String() string {
	if s.IsZero() {
		return "persistent"
	}
	var parts []string
	if s.IntermittentFrac > 0 {
		parts = append(parts, "i="+gf(s.IntermittentFrac)+"@"+gf(s.IntermittentProb))
	}
	if s.AgingFrac > 0 {
		parts = append(parts, "a="+gf(s.AgingFrac)+"@"+gf(s.AgingRamp))
	}
	if s.TransientRate > 0 {
		parts = append(parts, "t="+gf(s.TransientRate))
	}
	return "mixed:" + strings.Join(parts, ",")
}

// ClassSyntax returns the fault-class grammar accepted by ParseClassSpec.
// It is the single source of truth: CLI help text quotes it and
// TestFaultClassSyntaxSingleSource keeps README.md quoting it verbatim.
func ClassSyntax() string {
	return "persistent | mixed:[i=<frac>@<prob>][,a=<frac>@<ramp>][,t=<rate>]"
}

// ParseClassSpec parses the ClassSyntax grammar. The empty string and
// "persistent" both mean the pure-persistent zero spec. Parsing is strict:
// unknown or duplicate parts, out-of-range values, and a "mixed:" spec
// that selects no non-persistent behaviour are all errors, so a typo fails
// fast instead of silently running the persistent model.
func ParseClassSpec(s string) (ClassSpec, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "persistent" {
		return ClassSpec{}, nil
	}
	body, ok := strings.CutPrefix(s, "mixed:")
	if !ok {
		return ClassSpec{}, fmt.Errorf("faultmodel: unknown fault-class spec %q (want %s)", s, ClassSyntax())
	}
	var spec ClassSpec
	seen := map[string]bool{}
	for _, part := range strings.Split(body, ",") {
		key, val, ok := strings.Cut(part, "=")
		if !ok || val == "" {
			return ClassSpec{}, fmt.Errorf("faultmodel: bad fault-class part %q in %q (want key=value)", part, s)
		}
		if seen[key] {
			return ClassSpec{}, fmt.Errorf("faultmodel: duplicate fault-class part %q in %q", key, s)
		}
		seen[key] = true
		switch key {
		case "i", "a":
			fracStr, pStr, ok := strings.Cut(val, "@")
			if !ok {
				return ClassSpec{}, fmt.Errorf("faultmodel: part %q in %q needs <frac>@<value>", part, s)
			}
			frac, err := parseUnit(fracStr, true)
			if err != nil {
				return ClassSpec{}, fmt.Errorf("faultmodel: %s fraction in %q: %v", key, s, err)
			}
			p, err := parseUnit(pStr, false)
			if err != nil {
				return ClassSpec{}, fmt.Errorf("faultmodel: %s value in %q: %v", key, s, err)
			}
			if key == "i" {
				spec.IntermittentFrac, spec.IntermittentProb = frac, p
			} else {
				spec.AgingFrac, spec.AgingRamp = frac, p
			}
		case "t":
			rate, err := strconv.ParseFloat(val, 64)
			if err != nil || math.IsNaN(rate) || rate <= 0 || rate > 1 {
				return ClassSpec{}, fmt.Errorf("faultmodel: transient rate %q in %q must be in (0, 1] flips/line/cycle", val, s)
			}
			spec.TransientRate = rate
		default:
			return ClassSpec{}, fmt.Errorf("faultmodel: unknown fault-class part %q in %q (want i=, a=, or t=)", key, s)
		}
	}
	if spec.IntermittentFrac+spec.AgingFrac > 1 {
		return ClassSpec{}, fmt.Errorf("faultmodel: fractions in %q sum past 1", s)
	}
	if spec.IsZero() {
		return ClassSpec{}, fmt.Errorf("faultmodel: %q selects no non-persistent behaviour; use \"persistent\"", s)
	}
	return spec, nil
}

// parseUnit parses a float constrained strictly to (0, 1]: a part with a
// zero fraction or probability is indistinguishable from persistent and is
// rejected so String round-trips canonically.
func parseUnit(s string, isFrac bool) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(f) || f <= 0 || f > 1 {
		what := "probability"
		if isFrac {
			what = "fraction"
		}
		return 0, fmt.Errorf("%s %q must be in (0, 1]", what, s)
	}
	return f, nil
}

// Domain separators for the class hash streams. Like DieSeed's constant,
// these only need to differ from every other seed-derivation constant in
// the repo so the streams share no affine structure.
const (
	classSeedSep    = 0x9d5c0fb1e4c1a55f
	intermittentSep = 0x1b5ad7a9f5a5e1a7
	agingSep        = 0x7b4ff3c57d5a6a3d
)

// ClassSeed derives the class-assignment/activation seed from a fault-map
// sampling seed (gpu.Config.FaultSeed). The derivation is domain-separated
// so classing never correlates with the sampled fault positions, and per
// die because FaultSeed already is.
func ClassSeed(faultSeed uint64) uint64 { return mix64(faultSeed ^ classSeedSep) }

// u01 maps a hash to the unit interval with 53-bit precision, exactly as
// xrand.Rand.Float64 does, so probability comparisons are reproducible.
func u01(h uint64) float64 { return float64(h>>11) * 0x1.0p-53 }

// cellHash mixes (seed, line, cell, stream) into one well-distributed
// word: golden-ratio / Weyl multipliers decorrelate the coordinates and a
// splitmix64 finalizer mixes the sum.
func cellHash(seed uint64, line, bit int, stream uint64) uint64 {
	return mix64(seed +
		uint64(line)*0x9e3779b97f4a7c15 +
		(uint64(bit)+1)*0xda942042e4dd58b5 +
		stream*0xd6e8feb86659fd93)
}

// ClassOf assigns a sampled fault's class: a pure hash over (class seed,
// line, cell) partitions the unit interval into [0, IntermittentFrac) →
// intermittent, [IntermittentFrac, IntermittentFrac+AgingFrac) → aging,
// remainder → persistent. Assignment is independent of voltage resolution
// and of the sampling RNG stream, so the same cell keeps the same class in
// every Resolved view of the map.
func ClassOf(classSeed uint64, line, bit int, spec ClassSpec) FaultClass {
	if spec.IntermittentFrac == 0 && spec.AgingFrac == 0 {
		return Persistent
	}
	u := u01(cellHash(classSeed, line, bit, 0))
	switch {
	case u < spec.IntermittentFrac:
		return Intermittent
	case u < spec.IntermittentFrac+spec.AgingFrac:
		return Aging
	default:
		return Persistent
	}
}

// ActiveInEpoch reports whether a non-persistent fault is active during a
// fault epoch: a deterministic per-(seed, line, cell, epoch) hash stream
// compared against the activation probability. The same (inputs → answer)
// mapping holds at any shard count because it consumes no mutable state.
func ActiveInEpoch(classSeed uint64, line, bit int, epoch uint64, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return u01(cellHash(classSeed^intermittentSep, line, bit, epoch+1)) < p
}

// AgingProb returns the aging activation probability at a fault epoch:
// the monotone ramp min(1, AgingRamp x epoch). Epoch 0 (a fresh device)
// is always inactive.
func (s ClassSpec) AgingProb(epoch uint64) float64 {
	return math.Min(1, s.AgingRamp*float64(epoch))
}

// AgingActiveInEpoch is ActiveInEpoch on the aging stream (domain-separated
// from the intermittent stream so an intermittent and an aging fault in the
// same cell position never blink in lockstep).
func AgingActiveInEpoch(classSeed uint64, line, bit int, epoch uint64, spec ClassSpec) bool {
	p := spec.AgingProb(epoch)
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return u01(cellHash(classSeed^agingSep, line, bit, epoch+1)) < p
}

// ClassCounts tallies the map's sampled faults by assigned class, indexed
// by FaultClass (Transient stays 0: strikes are a rate process, not
// sampled cells). killi-faults prints this breakdown.
func ClassCounts(fm *Map, classSeed uint64, spec ClassSpec) [3]int {
	var counts [3]int
	for line := 0; line < fm.Lines(); line++ {
		for _, f := range fm.AllFaults(line) {
			counts[ClassOf(classSeed, line, f.Bit, spec)]++
		}
	}
	return counts
}
