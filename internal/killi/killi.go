package killi

import (
	"fmt"
	"math/bits"

	"killi/internal/bitvec"
	"killi/internal/cache"
	"killi/internal/ecc/bch"
	"killi/internal/ecc/olsc"
	"killi/internal/ecc/parity"
	"killi/internal/ecc/secded"
	"killi/internal/obs"
	"killi/internal/protection"
	"killi/internal/sram"
	"killi/internal/stats"
)

// Pre-interned counter handles for every event the scheme counts on a hot
// path; the DFH transition matrix covers all 16 prev→next pairs so setDFH
// never formats a counter name per event.
var (
	cLinesReclaim      = stats.Intern("killi.lines_reclaim_attempted")
	cLinesDisabled     = stats.Intern("killi.lines_disabled")
	cECCAccesses       = stats.Intern("killi.ecc_accesses")
	cECCContention     = stats.Intern("killi.ecc_contention_evictions")
	cInvertedSingle    = stats.Intern("killi.inverted_unmasked_single")
	cInvertedMulti     = stats.Intern("killi.inverted_unmasked_multi")
	cDECTEDPromotions  = stats.Intern("killi.dected_promotions")
	cPostSingle        = stats.Intern("killi.post_training_single_error")
	cPostMulti         = stats.Intern("killi.post_training_multi_error")
	cMiscorrection     = stats.Intern("killi.miscorrection_caught")
	cCorrectedReads    = stats.Intern("killi.corrected_reads")
	cInvertedChecks    = stats.Intern("killi.inverted_checks")
	cEvictionTrainings = stats.Intern("killi.eviction_trainings")
	cScrubTests        = stats.Intern("killi.scrub_tests")
	cScrubReclaimed    = stats.Intern("killi.scrub_reclaimed")

	cDFHTransition = dfhTransitions("killi.")
)

// dfhTransitions interns one counter per prev→next DFH pair, named
// prefix + "dfh_<prev>_to_<next>".
func dfhTransitions(prefix string) (m [4][4]stats.Counter) {
	for p := Stable0; p <= Disabled; p++ {
		for n := Stable0; n <= Disabled; n++ {
			m[p][n] = stats.Intern(prefix + "dfh_" + p.String() + "_to_" + n.String())
		}
	}
	return
}

// Config parameterizes a Killi instance.
type Config struct {
	// Ratio sizes the ECC cache: one ECC entry per Ratio L2 lines. The
	// paper sweeps 16, 32, 64, 128, 256.
	Ratio int
	// Assoc is the ECC cache associativity (Table 3: 4).
	Assoc int
	// UseDECTED enables the §5.2 extension: once a line is classified,
	// the 12 freed parity bits are recombined with the 11 SECDED bits to
	// hold a 21-bit DECTED code, so 2-fault lines stay enabled instead of
	// being disabled.
	UseDECTED bool
	// InvertedTraining enables the §5.6.2 mitigation: before a line is
	// declared fault-free, its data is rewritten inverted and read back,
	// which unmasks any stuck-at fault hiding behind matching data.
	InvertedTraining bool

	// Ablation switches (not part of the paper's design; they exist to
	// measure the value of §4.4's optimizations):

	// PlainLRUAllocation disables the b'01 > b'00 > b'10 allocation
	// priority, falling back to ordinary invalid-first LRU.
	PlainLRUAllocation bool
	// NoEvictionTraining disables DFH classification on evictions
	// (including ECC-contention evictions); lines then classify only on
	// load hits, which slows training convergence dramatically.
	NoEvictionTraining bool
	// XORHashECCIndex replaces the ECC cache's modulo set indexing with
	// an XOR-folded hash, spreading which L2 sets alias together.
	XORHashECCIndex bool
	// OLSCStrength switches the ECC cache to Orthogonal Latin Square
	// codes correcting up to this many errors per line (§5.5; Table 7
	// uses 11). Lines with any correctable fault count stay enabled.
	// Mutually exclusive with UseDECTED.
	OLSCStrength int
}

// DefaultConfig returns the paper's default: a 1:64 ECC cache, 4-way.
func DefaultConfig() Config { return Config{Ratio: 64, Assoc: 4} }

func (c Config) withDefaults() Config {
	if c.Ratio <= 0 {
		c.Ratio = 64
	}
	if c.Assoc <= 0 {
		c.Assoc = 4
	}
	return c
}

// Scheme is the Killi protection mechanism. It implements
// protection.Scheme. Construct with New.
type Scheme struct {
	cfg    Config
	h      protection.Host
	code   *secded.Code
	dected *bch.Code
	p16    parity.Scheme
	p4     parity.Scheme
	ecc    *eccCache

	// parity4 holds each line's cache-resident parity bits: during
	// Initial, interleaved-16 segments 0–3; in stable states, the 4-bit
	// fold over 128-bit segments.
	parity4 []uint8
	// dectedOn marks Stable1 lines protected by DECTED instead of SECDED
	// (only with UseDECTED).
	dectedOn []bool
	// olsc is the §5.5 low-Vmin codec (nil unless OLSCStrength > 0).
	olsc *olsc.Code
}

// New returns a Killi scheme with the given configuration.
func New(cfg Config) *Scheme {
	cfg = cfg.withDefaults()
	s := &Scheme{
		cfg:  cfg,
		code: secded.New(bitvec.LineBits),
		p16:  parity.NewInterleaved(16),
		p4:   parity.NewInterleaved(4),
	}
	if cfg.UseDECTED && cfg.OLSCStrength > 0 {
		panic("killi: UseDECTED and OLSCStrength are mutually exclusive")
	}
	if cfg.UseDECTED {
		s.dected = bch.NewLine(2)
	}
	if cfg.OLSCStrength > 0 {
		s.olsc = olsc.NewLine(cfg.OLSCStrength)
	}
	return s
}

// Name implements protection.Scheme.
func (k *Scheme) Name() string {
	switch {
	case k.cfg.UseDECTED:
		return fmt.Sprintf("killi-dected-1:%d", k.cfg.Ratio)
	case k.cfg.OLSCStrength > 0:
		return fmt.Sprintf("killi-olsc%d-1:%d", k.cfg.OLSCStrength, k.cfg.Ratio)
	default:
		return fmt.Sprintf("killi-1:%d", k.cfg.Ratio)
	}
}

// Attach implements protection.Scheme.
func (k *Scheme) Attach(h protection.Host) {
	k.h = h
	lines := h.Tags().Config().Lines()
	k.ecc = newECCCache(lines, k.cfg.Ratio, k.cfg.Assoc)
	k.ecc.xorIndex = k.cfg.XORHashECCIndex
	k.parity4 = make([]uint8, lines)
	k.dectedOn = make([]bool, lines)
}

// ECCEntries exposes the ECC cache capacity for reports and area checks.
func (k *Scheme) ECCEntries() int { return k.ecc.Entries() }

// ECCOccupancy returns the number of live ECC cache entries — high during
// DFH warmup, low once most lines are classified fault-free.
func (k *Scheme) ECCOccupancy() int { return k.ecc.occupancy() }

// DFHOf returns the DFH state of the line at (set, way).
func (k *Scheme) DFHOf(set, way int) DFH {
	return DFH(k.h.Tags().Entry(set, way).Class)
}

// DFHCode returns the raw Table 1 two-bit encoding of the line's DFH state
// (0 = b'00 stable/0-fault, 1 = b'01 initial, 2 = b'10 stable/1-fault,
// 3 = b'11 disabled), for scheme-agnostic probes such as the gpu package's
// misclassification oracle. Note what the classifier knows: DFH records
// detected activations, not ground truth — a fault that never manifested
// during training (dormant intermittent, unramped aging) leaves no trace
// here, which is exactly the gap the oracle measures.
func (k *Scheme) DFHCode(set, way int) uint8 { return uint8(k.DFHOf(set, way)) }

// Reset implements protection.Scheme: the DFH reset that runs at power-on
// or any voltage change. Every line — including previously disabled ones —
// returns to the Initial state and will be reclassified on the fly; there
// is no MBIST pass.
func (k *Scheme) Reset(vNorm float64) {
	tags := k.h.Tags()
	stats := k.h.Stats()
	// Direct set iteration: ForEach's per-entry closure call is measurable
	// across the 32K-line reset that every task performs.
	for s := 0; s < tags.Config().Sets; s++ {
		es := tags.Set(s)
		for w := range es {
			e := &es[w]
			if e.Disabled {
				stats.IncC(cLinesReclaim)
			}
			e.Disabled = false
			e.Valid = false
			e.Class = int(Initial)
		}
	}
	k.ecc.reset()
	for i := range k.parity4 {
		k.parity4[i] = 0
		k.dectedOn[i] = false
	}
	if o := k.h.Observer(); o != nil {
		o.OnReset(obs.Reset{Cycle: k.h.Now(), Voltage: vNorm, Lines: len(k.parity4)})
	}
}

// VictimFunc implements protection.Scheme: Killi's allocation priority
// (§4.4). Among invalid lines it prefers Initial > Stable0 > Stable1 —
// filling Initial lines first accelerates DFH training, and preferring
// Stable0 over Stable1 lowers the SDC exposure of combined soft-error +
// LV-fault patterns. With no invalid line it falls back to LRU.
func (k *Scheme) VictimFunc() cache.VictimFunc {
	if k.cfg.PlainLRUAllocation {
		return nil
	}
	return func(entries []cache.Entry) int {
		best, bestPri := -1, -1
		for w := range entries {
			e := &entries[w]
			if e.Disabled || e.Valid {
				continue
			}
			pri := 0
			switch DFH(e.Class) {
			case Initial:
				pri = 3
			case Stable0:
				pri = 2
			case Stable1:
				pri = 1
			}
			if pri > bestPri {
				best, bestPri = w, pri
			}
		}
		if best >= 0 {
			return best
		}
		return cache.LRUVictim(entries)
	}
}

// setDFH records a state transition on the tag entry and counts it. With
// an observer attached it also emits the transition as a timestamped
// event; the nil-observer check is the only cost on the default path.
func (k *Scheme) setDFH(set, way int, next DFH) {
	e := k.h.Tags().Entry(set, way)
	prev := DFH(e.Class)
	if prev != next {
		k.h.Stats().IncC(cDFHTransition[prev][next])
		if o := k.h.Observer(); o != nil {
			o.OnTransition(obs.Transition{
				Cycle: k.h.Now(),
				Line:  k.h.Tags().LineID(set, way),
				From:  uint8(prev),
				To:    uint8(next),
			})
		}
	}
	e.Class = int(next)
	if next == Disabled {
		e.Disabled = true
		e.Valid = false
		k.h.Stats().IncC(cLinesDisabled)
	}
}

// allocECC obtains the ECC cache entry for a line. When contention evicts
// another line's checkbits, the victim line's DFH is first trained against
// the dying checkbits, exactly as a regular L2 eviction would (§4.4). This
// on-the-way-out classification is what lets training converge even through
// a heavily contended ECC cache: most victims classify b'00, switch to
// their folded 4-bit parity, and stay resident — only a line that still
// needs checkbits after training (Stable1, or Initial with eviction
// training disabled) is evicted from the L2 (the paper's ECC-cache-induced
// L2 replacement).
func (k *Scheme) allocECC(set, way int) *eccEntry {
	tags := k.h.Tags()
	id := tags.LineID(set, way)
	k.h.Stats().IncC(cECCAccesses)
	entry, evicted, old := k.ecc.allocate(set, id)
	if evicted >= 0 {
		k.h.Stats().IncC(cECCContention)
		ways := tags.Config().Ways
		vSet, vWay := evicted/ways, evicted%ways
		ve := tags.Entry(vSet, vWay)
		if ve.Valid {
			switch DFH(ve.Class) {
			case Initial:
				if k.cfg.NoEvictionTraining {
					// Untrained and unprotected: must leave the L2.
					k.h.SchemeInvalidate(vSet, vWay)
					break
				}
				k.classifyDeparting(vSet, vWay, evicted, &old)
				// A victim classified Stable0 keeps operating on its
				// folded parity and stays resident; Disabled already
				// invalidated itself; Stable1 loses its checkbits with
				// the entry and must leave.
				if DFH(ve.Class) == Stable0 && !k.cfg.InvertedTraining {
					// Unlike eviction training, the line's data stays
					// live under 4-bit parity alone, so a fault masked by
					// matching data (§5.6.2) would go unwatched until a
					// write unmasks it. The polarity test costs one
					// write/read pair and closes that window; with
					// InvertedTraining it already ran inside
					// classifyDeparting. Lines whose masked faults the
					// codec could still correct go to Stable1 (refilled
					// under fresh checkbits); only faults beyond its
					// strength disable the line.
					limit := 1
					switch {
					case k.olsc != nil:
						limit = k.cfg.OLSCStrength
					case k.cfg.UseDECTED:
						limit = 2
					}
					switch faults := k.invertedCheck(evicted, k.h.Data().Read(evicted)); {
					case faults == 0:
						// Genuinely clean: stays resident.
					case faults <= limit:
						k.h.Stats().IncC(cInvertedSingle)
						if k.cfg.UseDECTED && faults == 2 {
							k.h.Stats().IncC(cDECTEDPromotions)
							k.dectedOn[evicted] = true
						}
						k.setDFH(vSet, vWay, Stable1)
					default:
						k.h.Stats().IncC(cInvertedMulti)
						k.setDFH(vSet, vWay, Disabled)
					}
				}
				if DFH(ve.Class) == Stable1 {
					k.h.SchemeInvalidate(vSet, vWay)
				}
			case Stable1:
				k.h.SchemeInvalidate(vSet, vWay)
			}
		}
	}
	return entry
}

// OnFill implements protection.Scheme: metadata generation for data just
// written into (set, way). data is the encoder-input (true) payload.
func (k *Scheme) OnFill(set, way int, data bitvec.Line) {
	id := k.h.Tags().LineID(set, way)
	if k.olsc != nil {
		k.olscFill(set, way, id, data)
		return
	}
	switch k.DFHOf(set, way) {
	case Initial:
		p16 := k.p16.Generate(data)
		k.parity4[id] = uint8(p16 & 0xf)
		entry := k.allocECC(set, way)
		entry.parity12 = uint16(p16 >> 4)
		entry.check = k.code.EncodeLine(data)
		entry.dected = bch.Check{}
	case Stable0:
		k.parity4[id] = uint8(k.p4.Generate(data))
	case Stable1:
		k.parity4[id] = uint8(k.p4.Generate(data))
		entry := k.allocECC(set, way)
		if k.dectedOn[id] {
			entry.dected = k.dected.Encode(bitvec.VectorOf(data[:], bitvec.LineBits))
		} else {
			entry.check = k.code.EncodeLine(data)
			entry.dected = bch.Check{}
		}
	default:
		panic("killi: fill into a disabled line")
	}
}

// OnWriteHit implements protection.Scheme: a write-through store updated
// the line; regenerate its metadata for the new data.
func (k *Scheme) OnWriteHit(set, way int, data bitvec.Line) {
	k.OnFill(set, way, data)
}

// OnReadHit implements protection.Scheme: the Table 2 state machine.
func (k *Scheme) OnReadHit(set, way int, data *bitvec.Line) protection.Verdict {
	switch k.DFHOf(set, way) {
	case Stable0:
		return k.readStable0(set, way, data)
	case Initial:
		if k.olsc != nil {
			return k.olscReadInitial(set, way, data)
		}
		return k.readInitial(set, way, data)
	case Stable1:
		if k.olsc != nil {
			return k.olscReadStable1(set, way, data)
		}
		return k.readStable1(set, way, data)
	default:
		panic("killi: read hit on a disabled line")
	}
}

// readStable0 handles hits on lines believed fault-free: 4-bit parity only.
func (k *Scheme) readStable0(set, way int, data *bitvec.Line) protection.Verdict {
	id := k.h.Tags().LineID(set, way)
	_, mism := k.p4.Check(*data, uint64(k.parity4[id]))
	switch {
	case mism == 0:
		return protection.Deliver
	case mism == 1:
		// A 1-bit error surfaced after training: the initial
		// classification was wrong (a masked fault unmasked) or a soft
		// error struck. Return the line to Initial and relearn.
		k.h.Stats().IncC(cPostSingle)
		k.setDFH(set, way, Initial)
		k.h.Tags().Invalidate(set, way)
		return protection.ErrorMiss
	default:
		k.h.Stats().IncC(cPostMulti)
		k.setDFH(set, way, Disabled)
		return protection.ErrorMiss
	}
}

// readInitial classifies a line on its first (or any subsequent) hit while
// in the unknown state, using segmented parity + SECDED syndrome + global
// parity.
func (k *Scheme) readInitial(set, way int, data *bitvec.Line) protection.Verdict {
	tags := k.h.Tags()
	id := tags.LineID(set, way)
	entry, eSet, eWay, hit := k.ecc.lookup(set, id)
	if !hit {
		// The entry was lost to contention and the line should have been
		// invalidated then; reaching here is a controller bug.
		panic("killi: Initial line without an ECC cache entry")
	}
	k.h.Stats().IncC(cECCAccesses)
	k.ecc.touch(eSet, eWay)
	stored16 := uint64(k.parity4[id]) | uint64(entry.parity12)<<4
	_, segMis := k.p16.Check(*data, stored16)
	syn, gErr := k.code.SyndromeLine(*data, entry.check)

	switch {
	case segMis == 0 && syn == 0 && !gErr:
		// No error — the most frequent case. Free the checkbits.
		return k.finishTrainingClean(set, way, id, data, stored16, entry)

	case segMis == 1 && syn != 0 && gErr:
		// Single-bit LV error signature: correct with the stored
		// checkbits, then verify the corrected data against ALL 16
		// stored parity bits. A ≥3-error pattern can forge this
		// signature (two errors sharing a segment plus one more) and
		// trick SECDED into a miscorrection; the post-correction parity
		// recheck is what makes detection the parity∧SECDED joint of the
		// paper's §5.3 coverage analysis.
		res := k.code.DecodeLine(data, entry.check)
		if res.Status != secded.CorrectedData && res.Status != secded.CorrectedCheck {
			k.setDFH(set, way, Disabled)
			k.ecc.invalidate(set, id)
			return protection.ErrorMiss
		}
		if _, stillBad := k.p16.Check(*data, stored16); stillBad != 0 {
			k.h.Stats().IncC(cMiscorrection)
			k.setDFH(set, way, Disabled)
			k.ecc.invalidate(set, id)
			return protection.ErrorMiss
		}
		if k.cfg.InvertedTraining {
			// §5.6.2 applied to the 1-error path as well: additional
			// faults may be hiding behind matching data; the polarity
			// check counts every stuck cell.
			switch faults := k.invertedCheck(id, *data); {
			case faults >= 2:
				k.h.Stats().IncC(cInvertedMulti)
				k.setDFH(set, way, Disabled)
				k.ecc.invalidate(set, id)
				return protection.ErrorMiss
			case faults == 0:
				// The corrected error was transient: the line is clean.
				k.h.Stats().IncC(cCorrectedReads)
				k.setDFH(set, way, Stable0)
				k.parity4[id] = uint8(parity.Fold(stored16))
				k.ecc.invalidate(set, id)
				return protection.Deliver
			}
		}
		k.h.Stats().IncC(cCorrectedReads)
		k.setDFH(set, way, Stable1)
		k.parity4[id] = uint8(parity.Fold(stored16))
		return protection.Deliver

	case syn != 0 && !gErr && k.cfg.UseDECTED:
		// Even error count (very likely exactly two). The DECTED
		// extension keeps such lines enabled: refetch clean data and
		// re-protect with the 21-bit code.
		k.h.Stats().IncC(cDECTEDPromotions)
		k.setDFH(set, way, Stable1)
		k.dectedOn[id] = true
		k.parity4[id] = uint8(parity.Fold(stored16))
		k.ecc.invalidate(set, id)
		tags.Invalidate(set, way)
		return protection.ErrorMiss

	default:
		// Every remaining Table 2 row disables the line: multi-bit with
		// even parity, odd multi-bit, or parity/ECC disagreement.
		k.setDFH(set, way, Disabled)
		k.ecc.invalidate(set, id)
		return protection.ErrorMiss
	}
}

// finishTrainingClean completes an Initial→Stable0 transition, optionally
// running the inverted-data masked-fault check first (§5.6.2).
func (k *Scheme) finishTrainingClean(set, way, id int, data *bitvec.Line, stored16 uint64, entry *eccEntry) protection.Verdict {
	if k.cfg.InvertedTraining {
		faults := k.invertedCheck(id, *data)
		switch {
		case faults == 1:
			// A masked single fault: classify Stable1 and keep the
			// checkbits (they match the current clean data).
			k.h.Stats().IncC(cInvertedSingle)
			k.setDFH(set, way, Stable1)
			k.parity4[id] = uint8(parity.Fold(stored16))
			return protection.Deliver
		case faults >= 2:
			k.h.Stats().IncC(cInvertedMulti)
			k.setDFH(set, way, Disabled)
			k.ecc.invalidate(set, id)
			return protection.ErrorMiss
		}
	}
	k.setDFH(set, way, Stable0)
	k.parity4[id] = uint8(parity.Fold(stored16))
	k.ecc.invalidate(set, id)
	return protection.Deliver
}

// invertedCheck runs the §5.6.2 polarity test via the host's data array.
func (k *Scheme) invertedCheck(id int, data bitvec.Line) int {
	k.h.Stats().IncC(cInvertedChecks)
	return invertedFaultCount(k.h.Data(), id, data)
}

// invertedFaultCount writes the line's inverted data, reads it back,
// restores the original, and returns the number of cells that failed
// either polarity — which is exactly the line's unmasked-able stuck-at
// fault count (§5.6.2's write → read → write-inverted → read flow). The
// test writes are patterns, not program data: the array's ground truth
// stays the line's last real write even when data is a corrupted read.
func invertedFaultCount(arr *sram.Array, id int, data bitvec.Line) int {
	inv := data.Invert()
	arr.WritePattern(id, inv)
	failInv := arr.Read(id).Xor(inv)
	arr.WritePattern(id, data)
	failData := arr.Read(id).Xor(data)
	n := 0
	for w := range failInv {
		n += bits.OnesCount64(failInv[w] | failData[w])
	}
	return n
}

// readStable1 handles hits on lines with one known LV fault.
func (k *Scheme) readStable1(set, way int, data *bitvec.Line) protection.Verdict {
	tags := k.h.Tags()
	id := tags.LineID(set, way)
	entry, eSet, eWay, hit := k.ecc.lookup(set, id)
	if !hit {
		panic("killi: Stable1 line without an ECC cache entry")
	}
	k.h.Stats().IncC(cECCAccesses)
	// Coordinated replacement: the protected line was just touched, so
	// its metadata moves to MRU with it (§4.4).
	k.ecc.touch(eSet, eWay)

	if k.dectedOn[id] {
		return k.readDECTED(set, way, id, data, entry)
	}

	_, segMis := k.p4.Check(*data, uint64(k.parity4[id]))
	syn, gErr := k.code.SyndromeLine(*data, entry.check)
	switch {
	case syn == 0 && !gErr && segMis == 0:
		// The known fault has vanished (a transient that was overwritten,
		// or a masked fault flipped back): reclassify as fault-free.
		k.setDFH(set, way, Stable0)
		k.ecc.invalidate(set, id)
		return protection.Deliver
	case syn == 0 && !gErr && segMis > 0:
		// Parity disagrees while ECC sees nothing: a combination ECC
		// cannot untangle (likely LV fault + new error). Disable.
		k.setDFH(set, way, Disabled)
		k.ecc.invalidate(set, id)
		return protection.ErrorMiss
	case syn != 0 && gErr:
		// The single-bit LV error, as expected: correct and deliver
		// (segmented parity is a don't-care for the decision per
		// Table 2, but the corrected data must agree with the stored
		// 4-bit parity — a cheap guard against ≥3-error aliases).
		res := k.code.DecodeLine(data, entry.check)
		if res.Status != secded.CorrectedData && res.Status != secded.CorrectedCheck {
			k.setDFH(set, way, Disabled)
			k.ecc.invalidate(set, id)
			return protection.ErrorMiss
		}
		if _, stillBad := k.p4.Check(*data, uint64(k.parity4[id])); stillBad != 0 {
			k.h.Stats().IncC(cMiscorrection)
			k.setDFH(set, way, Disabled)
			k.ecc.invalidate(set, id)
			return protection.ErrorMiss
		}
		k.h.Stats().IncC(cCorrectedReads)
		return protection.Deliver
	default:
		// syn != 0 && !gErr (an additional error on top of the known
		// one), or syn == 0 && gErr: disable.
		k.setDFH(set, way, Disabled)
		k.ecc.invalidate(set, id)
		return protection.ErrorMiss
	}
}

// readDECTED verifies a DECTED-protected stable line (§5.2 extension).
func (k *Scheme) readDECTED(set, way, id int, data *bitvec.Line, entry *eccEntry) protection.Verdict {
	d := *data
	res := k.dected.Decode(bitvec.VectorOf(d[:], bitvec.LineBits), entry.dected)
	switch res.Status {
	case bch.OK:
		return protection.Deliver
	case bch.Corrected:
		*data = d
		k.h.Stats().IncC(cCorrectedReads)
		return protection.Deliver
	default:
		k.setDFH(set, way, Disabled)
		k.ecc.invalidate(set, id)
		return protection.ErrorMiss
	}
}

// OnEvict implements protection.Scheme: training on eviction (§4.4). For a
// departing Initial line, Killi reads the data out, classifies it exactly
// as a hit would, and persists the DFH verdict; the ECC entry is freed in
// all cases because there is no resident data left to protect.
func (k *Scheme) OnEvict(set, way int) {
	tags := k.h.Tags()
	id := tags.LineID(set, way)
	switch k.DFHOf(set, way) {
	case Stable0:
		return
	case Stable1:
		k.ecc.invalidate(set, id)
		return
	case Disabled:
		return
	}
	// Initial: classify the evicted data.
	entry, _, _, hit := k.ecc.lookup(set, id)
	if !hit {
		panic("killi: evicting Initial line without an ECC cache entry")
	}
	if !k.cfg.NoEvictionTraining {
		k.classifyDeparting(set, way, id, entry)
	}
	k.ecc.invalidate(set, id)
}

// classifyDeparting runs §4.4 eviction training for an Initial line that is
// leaving the cache (a regular L2 eviction or an ECC-cache contention
// eviction): read the data out, evaluate parity + ECC against the given
// (possibly already dying) entry, and persist the DFH verdict.
func (k *Scheme) classifyDeparting(set, way, id int, entry *eccEntry) {
	if k.olsc != nil {
		k.olscClassifyDeparting(set, way, id, entry)
		return
	}
	data := k.h.Data().Read(id)
	stored16 := uint64(k.parity4[id]) | uint64(entry.parity12)<<4
	_, segMis := k.p16.Check(data, stored16)
	syn, gErr := k.code.SyndromeLine(data, entry.check)
	k.h.Stats().IncC(cEvictionTrainings)

	switch {
	case segMis == 0 && syn == 0 && !gErr:
		if k.cfg.InvertedTraining {
			switch faults := k.invertedCheck(id, data); {
			case faults == 1:
				k.setDFH(set, way, Stable1)
			case faults >= 2:
				k.setDFH(set, way, Disabled)
			default:
				k.setDFH(set, way, Stable0)
			}
		} else {
			k.setDFH(set, way, Stable0)
		}
	case segMis == 1 && syn != 0 && gErr:
		if k.cfg.InvertedTraining {
			switch faults := k.invertedCheck(id, data); {
			case faults >= 2:
				k.setDFH(set, way, Disabled)
			case faults == 0:
				k.setDFH(set, way, Stable0)
			default:
				k.setDFH(set, way, Stable1)
			}
		} else {
			k.setDFH(set, way, Stable1)
		}
	case syn != 0 && !gErr && k.cfg.UseDECTED:
		k.h.Stats().IncC(cDECTEDPromotions)
		k.setDFH(set, way, Stable1)
		k.dectedOn[id] = true
	default:
		k.setDFH(set, way, Disabled)
	}
	// A line that reached a stable state switches from the 16-bit training
	// parity to the 4-bit fold — required when a cleanly-classified
	// contention victim stays resident, and harmless for true departures
	// (OnFill regenerates parity on the next install).
	if c := k.DFHOf(set, way); c == Stable0 || c == Stable1 {
		k.parity4[id] = uint8(parity.Fold(stored16))
	}
}

// Scrub re-tests every disabled line with the §5.6.2 polarity flow and
// reclaims those whose faults turn out not to be persistent — the paper's
// footnote 7: "Disabled lines due to soft errors can also be reclaimed by
// a scrubber." Lines with zero stuck cells return as Stable0, one stuck
// cell as Stable1; genuine multi-bit LV faults stay disabled. The scrubber
// is meant for idle cycles; it touches only invalid (disabled) lines, so
// no resident data is at risk.
func (k *Scheme) Scrub() (reclaimed int) {
	tags := k.h.Tags()
	arr := k.h.Data()
	tags.ForEach(func(set, way int, e *cache.Entry) {
		if !e.Disabled {
			return
		}
		id := tags.LineID(set, way)
		k.h.Stats().IncC(cScrubTests)
		// The line is invalid, so a test pattern can be written freely.
		var pattern bitvec.Line
		arr.Write(id, pattern)
		faults := invertedFaultCount(arr, id, pattern)
		if faults >= 2 {
			return
		}
		e.Disabled = false
		if faults == 1 {
			e.Class = int(Stable1)
		} else {
			e.Class = int(Stable0)
		}
		if o := k.h.Observer(); o != nil {
			o.OnTransition(obs.Transition{Cycle: k.h.Now(), Line: id,
				From: uint8(Disabled), To: uint8(DFH(e.Class))})
		}
		k.h.Stats().IncC(cScrubReclaimed)
		reclaimed++
	})
	return reclaimed
}
