package killi

import (
	"fmt"

	"killi/internal/bitvec"
	"killi/internal/cache"
	"killi/internal/ecc/olsc"
	"killi/internal/ecc/parity"
	"killi/internal/obs"
	"killi/internal/protection"
	"killi/internal/stats"
)

// Pre-interned counter handles for every event the scheme counts on a hot
// path; wt covers the classifier's events and all 16 prev→next DFH pairs,
// so no counter name is formatted per event.
var (
	cLinesReclaim      = stats.Intern("killi.lines_reclaim_attempted")
	cECCAccesses       = stats.Intern("killi.ecc_accesses")
	cECCContention     = stats.Intern("killi.ecc_contention_evictions")
	cInvertedChecks    = stats.Intern("killi.inverted_checks")
	cEvictionTrainings = stats.Intern("killi.eviction_trainings")
	cScrubTests        = stats.Intern("killi.scrub_tests")
	cScrubReclaimed    = stats.Intern("killi.scrub_reclaimed")

	wt = newHandles("killi.")
)

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
	// uses 11, the strongest whose checkbits fit an entry — see
	// olsc.CheckLine). Lines with any correctable fault count stay enabled.
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
	cfg Config
	h   protection.Host
	codecs
	pol policy
	ecc *eccCache

	// parity4 holds each line's cache-resident parity bits: during
	// Initial, interleaved-16 segments 0–3; in stable states, the 4-bit
	// fold over 128-bit segments.
	parity4 []uint8
	// dectedOn marks Stable1 lines protected by DECTED instead of SECDED
	// (only with UseDECTED).
	dectedOn []bool
}

// New returns a Killi scheme with the given configuration. It panics on an
// OLSC strength olsc.CheckLine rejects.
func New(cfg Config) *Scheme {
	cfg = cfg.withDefaults()
	if cfg.UseDECTED && cfg.OLSCStrength > 0 {
		panic("killi: UseDECTED and OLSCStrength are mutually exclusive")
	}
	s := &Scheme{cfg: cfg, codecs: newCodecs(), pol: policy{limit: 1, polarity: cfg.InvertedTraining}}
	if cfg.UseDECTED {
		s.pol.promote, s.pol.limit = true, 2
	}
	if cfg.OLSCStrength > 0 {
		if err := olsc.CheckLine(cfg.OLSCStrength); err != nil {
			panic(fmt.Sprintf("killi: %v", err))
		}
		s.olsc = olsc.NewLine(cfg.OLSCStrength)
		s.pol.limit = cfg.OLSCStrength
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

// dfhOf returns the DFH state of the line at (set, way).
func (k *Scheme) dfhOf(set, way int) DFH {
	return DFH(k.h.Tags().Entry(set, way).Class)
}

// DFHCodes fills codes[id] with the raw Table 1 two-bit encoding of every
// line's DFH state, indexed by dense line ID (0 = b'00 stable/0-fault,
// 1 = b'01 initial, 2 = b'10 stable/1-fault, 3 = b'11 disabled), for
// scheme-agnostic probes such as the gpu package's misclassification
// oracle; codes must hold one byte per line. Note what the classifier
// knows: DFH records detected activations, not ground truth — a fault that
// never manifested during training (dormant intermittent, unramped aging)
// leaves no trace here, which is exactly the gap the oracle measures.
func (k *Scheme) DFHCodes(codes []uint8) {
	tags := k.h.Tags()
	for s := 0; s < tags.Config().Sets; s++ {
		for w, e := range tags.Set(s) {
			codes[tags.LineID(s, w)] = e.Class
		}
	}
}

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
			e.Class = uint8(Initial)
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
// LV-fault patterns; the first invalid Initial line ends the scan, since
// nothing outranks it. With no invalid line it falls back to LRU (the
// simulated L2 calls it only while a set has an invalid enabled line).
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
				return w
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
	prev := wt.set(k.h.Stats(), k.h.Tags().Entry(set, way), next)
	if o := k.h.Observer(); o != nil && prev != next {
		o.OnTransition(obs.Transition{Cycle: k.h.Now(), Line: k.h.Tags().LineID(set, way),
			From: uint8(prev), To: uint8(next)})
	}
}

// settle counts a classification's events, records a DECTED promotion and
// moves the line to next.
func (k *Scheme) settle(set, way, id int, next DFH, ev event) {
	wt.count(k.h.Stats(), ev)
	if ev&evPromotion != 0 {
		k.dectedOn[id] = true
	}
	k.setDFH(set, way, next)
}

// codeOf names the code protecting a line in state.
func (k *Scheme) codeOf(state DFH, id int) lineCode {
	switch {
	case k.olsc != nil:
		return byOLSC
	case state == Stable1 && k.dectedOn[id]:
		return byDECTED
	}
	return bySECDED
}

// classify runs Table 2 on o, running the polarity test when the row
// asks for it.
func (k *Scheme) classify(o observation, id int, data bitvec.Line) outcome {
	out := k.pol.next(o)
	if out.act == probe {
		o.stuck = k.invertedCheck(id, data)
		out = k.pol.next(o)
	}
	return out
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
	k.h.Stats().IncC(cECCAccesses)
	entry, evicted, old := k.ecc.allocate(set, tags.LineID(set, way))
	if evicted < 0 {
		return entry
	}
	k.h.Stats().IncC(cECCContention)
	vSet, vWay := evicted/tags.Config().Ways, evicted%tags.Config().Ways
	ve := tags.Entry(vSet, vWay)
	if !ve.Valid {
		return entry
	}
	if DFH(ve.Class) == Initial && !k.cfg.NoEvictionTraining {
		data := k.classifyDeparting(vSet, vWay, evicted, &old)
		// A victim classified Stable0 keeps operating on its folded parity
		// and stays resident; Disabled already invalidated itself; Stable1
		// loses its checkbits with the entry and must leave.
		if DFH(ve.Class) == Stable0 && !k.cfg.InvertedTraining {
			// Unlike eviction training, the line's data stays live under
			// 4-bit parity alone, so a fault masked by matching data
			// (§5.6.2) would go unwatched until a write unmasks it. The
			// polarity test costs one write/read pair and closes that
			// window; with InvertedTraining it already ran inside
			// classifyDeparting. Lines whose masked faults the codec could
			// still correct go to Stable1 (refilled under fresh
			// checkbits); only faults beyond its strength disable the line.
			// The test starts from the line classifyDeparting read out:
			// nothing has written the array since.
			p := k.pol
			p.polarity = true
			out := p.next(observation{state: Initial, recheckOK: true,
				stuck: k.invertedCheck(evicted, data)})
			k.settle(vSet, vWay, evicted, out.next, out.ev)
		}
	}
	// An untrained (NoEvictionTraining) or Stable1 victim is unprotected
	// without its entry: it must leave the L2.
	if c := DFH(ve.Class); c == Initial || c == Stable1 {
		k.h.SchemeInvalidate(vSet, vWay)
	}
	return entry
}

// OnFill implements protection.Scheme: metadata generation for data just
// written into (set, way). data is the encoder-input (true) payload.
func (k *Scheme) OnFill(set, way int, data bitvec.Line) {
	id := k.h.Tags().LineID(set, way)
	state := k.dfhOf(set, way)
	var entry *eccEntry
	switch state {
	case Disabled:
		panic("killi: fill into a disabled line")
	case Initial, Stable1:
		entry = k.allocECC(set, way)
	}
	k.encode(state, data, &k.parity4[id], entry)
}

// OnWriteHit implements protection.Scheme: a write-through store updated
// the line; regenerate its metadata for the new data.
func (k *Scheme) OnWriteHit(set, way int, data bitvec.Line) {
	k.OnFill(set, way, data)
}

// OnReadHit implements protection.Scheme: the Table 2 state machine on a
// load hit. The write-through policy makes every line refetchable, so an
// untrusted line is dropped and missed on.
func (k *Scheme) OnReadHit(set, way int, data *bitvec.Line) protection.Verdict {
	id := k.h.Tags().LineID(set, way)
	o := observation{state: k.dfhOf(set, way), stuck: untested}
	var entry *eccEntry
	switch o.state {
	case Disabled:
		panic("killi: read hit on a disabled line")
	case Initial, Stable1:
		e, eSet, eWay, hit := k.ecc.lookup(set, id)
		if !hit {
			// The entry was lost to contention and the line should have
			// been invalidated then; reaching here is a controller bug.
			panic(fmt.Sprintf("killi: %v line without an ECC cache entry", o.state))
		}
		k.h.Stats().IncC(cECCAccesses)
		// Coordinated replacement: the protected line was just touched, so
		// its metadata moves to MRU with it (§4.4).
		k.ecc.touch(eSet, eWay)
		entry, o.code = e, k.codeOf(o.state, id)
	}
	stored := k.observe(&o, data, k.h.Data().ReadTrue(id), k.parity4[id], entry, true)
	out := k.classify(o, id, *data)
	if out.next == o.state && out.act == deliver {
		return protection.Deliver
	}
	k.settle(set, way, id, out.next, out.ev)
	if o.state == Initial && (out.next == Stable0 || out.next == Stable1) {
		k.parity4[id] = uint8(parity.Fold(stored))
	}
	if entry != nil && (out.next != Stable1 || out.act == refetch) {
		k.ecc.invalidate(set, id)
	}
	switch out.act {
	case deliver, deliverCorrected:
		return protection.Deliver
	case refetch:
		k.h.Tags().Invalidate(set, way)
	}
	return protection.ErrorMiss
}

// invertedCheck runs the §5.6.2 polarity test through the host's data
// array: the count of the line's stuck cells, with its cells left holding
// data (sram.Array.StuckCells).
func (k *Scheme) invertedCheck(id int, data bitvec.Line) int {
	k.h.Stats().IncC(cInvertedChecks)
	return k.h.Data().StuckCells(id, data)
}

// OnEvict implements protection.Scheme: training on eviction (§4.4). For a
// departing Initial line, Killi reads the data out, classifies it exactly
// as a hit would, and persists the DFH verdict; the ECC entry is freed in
// all cases because there is no resident data left to protect.
func (k *Scheme) OnEvict(set, way int) {
	id := k.h.Tags().LineID(set, way)
	switch k.dfhOf(set, way) {
	case Stable1:
		k.ecc.invalidate(set, id)
	case Initial:
		entry, _, _, hit := k.ecc.lookup(set, id)
		if !hit {
			panic("killi: evicting Initial line without an ECC cache entry")
		}
		if !k.cfg.NoEvictionTraining {
			k.classifyDeparting(set, way, id, entry)
		}
		k.ecc.invalidate(set, id)
	}
}

// classifyDeparting runs §4.4 eviction training for an Initial line that is
// leaving the cache (a regular L2 eviction or an ECC-cache contention
// eviction): read the data out, evaluate parity + ECC against the given
// (possibly already dying) entry, and persist the DFH verdict. The data is
// not delivered, so it is not corrected, and of the row's events only a
// DECTED promotion counts. It returns the line as read: an Initial line is
// observed under SECDED or OLSC, and observe without decode leaves it
// unmodified.
func (k *Scheme) classifyDeparting(set, way, id int, entry *eccEntry) bitvec.Line {
	data := k.h.Data().Read(id)
	o := observation{state: Initial, code: k.codeOf(Initial, id), stuck: untested}
	stored := k.observe(&o, &data, k.h.Data().ReadTrue(id), k.parity4[id], entry, false)
	k.h.Stats().IncC(cEvictionTrainings)
	out := k.classify(o, id, data)
	k.settle(set, way, id, out.next, out.ev&evPromotion)
	// A line that reached a stable state switches from the 16-bit training
	// parity to the 4-bit fold — required when a cleanly-classified
	// contention victim stays resident, and harmless for true departures
	// (OnFill regenerates parity on the next install). OLSC mode skips the
	// fold, so its resident clean victims are disabled on their next hit: a
	// known bug whose fix moves perfbench's pinned daemon digest (ROADMAP
	// item 1's re-pin list).
	if (out.next == Stable0 || out.next == Stable1) && k.olsc == nil {
		k.parity4[id] = uint8(parity.Fold(stored))
	}
	return data
}

// Scrub re-tests every disabled line with the §5.6.2 polarity test — an
// all-zeros write, then the array's stuck-cell count (StuckCells) — and
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
		faults := arr.StuckCells(id, pattern)
		if faults >= 2 {
			return
		}
		e.Disabled = false
		if faults == 1 {
			e.Class = uint8(Stable1)
		} else {
			e.Class = uint8(Stable0)
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
