package killi

import (
	"fmt"
	"testing"

	"killi/internal/bitvec"
	"killi/internal/cache"
	"killi/internal/ecc"
	"killi/internal/ecc/bch"
	"killi/internal/ecc/olsc"
	"killi/internal/ecc/parity"
	"killi/internal/ecc/secded"
	"killi/internal/faultmodel"
	"killi/internal/gpu"
	"killi/internal/protection"
	"killi/internal/sram"
	"killi/internal/stats"
	"killi/internal/workload"
	"killi/internal/xrand"
)

// eagerCheck is what an ECC entry stored before entries dropped their
// checkbits: every code's checkbits, written at encode time.
type eagerCheck struct {
	check  secded.Check
	dected bch.Check
	olsc   [bitvec.LineWords]uint64
}

// eagerEncode is the encoder that stored checkbits in the entry, kept as
// the oracle of codecs.encode plus on-demand checkbits.
func eagerEncode(m *codecs, state DFH, c lineCode, data bitvec.Line, parity4 *uint8, entry *eccEntry, ck *eagerCheck) {
	if state != Initial {
		*parity4 = uint8(m.p4.Generate(data))
	} else {
		p16 := m.p16.Generate(data)
		*parity4 = uint8(p16 & 0xf)
		entry.parity12 = uint16(p16 >> 4)
	}
	dv := bitvec.VectorOf(data[:], bitvec.LineBits)
	switch {
	case entry == nil:
	case c == byOLSC:
		m.olsc.EncodeTo(bitvec.VectorOf(ck.olsc[:], m.olsc.CheckBits()), dv)
	case c == byDECTED:
		ck.dected = bch.NewLine(2).Encode(dv)
	default:
		ck.check = secded.NewLine().EncodeLine(data)
		ck.dected = bch.Check{}
	}
}

// eagerObserve is codecs.observe decoding against stored checkbits.
func eagerObserve(m *codecs, o *observation, data *bitvec.Line, parity4 uint8, entry *eccEntry, ck *eagerCheck, decode bool) uint64 {
	stored, ps := uint64(parity4), m.p4
	if o.state == Initial {
		stored, ps = stored|uint64(entry.parity12)<<4, m.p16
	}
	_, o.segMis = ps.Check(*data, stored)
	o.recheckOK = true
	if entry == nil {
		return stored
	}
	switch o.code {
	case byOLSC:
		o.verdict = eagerVerdictOLSC(m.olsc, data, bitvec.VectorOf(ck.olsc[:], m.olsc.CheckBits()), decode)
	case byDECTED:
		o.verdict = eagerVerdictDECTED(data, ck.dected, decode)
		return stored
	default:
		o.verdict = eagerVerdictSECDED(data, ck.check, decode)
	}
	if o.verdict == ecc.Corrected && decode {
		_, bad := ps.Check(*data, stored)
		o.recheckOK = bad == 0
	}
	return stored
}

// eagerVerdictSECDED reads the syndrome and global parity against stored
// checkbits; without decode the single-error signature alone counts as
// corrected.
func eagerVerdictSECDED(data *bitvec.Line, check secded.Check, decode bool) ecc.Reading {
	c := secded.NewLine()
	syn, gErr := c.SyndromeLine(*data, check)
	switch {
	case syn == 0 && !gErr:
		return ecc.NoError
	case !gErr:
		return ecc.EvenDetected
	case syn == 0:
		return ecc.GlobalFlip
	case !decode:
		return ecc.Corrected
	}
	if st := c.DecodeLine(data, check).Status; st == secded.CorrectedData || st == secded.CorrectedCheck {
		return ecc.Corrected
	}
	return ecc.Uncorrectable
}

func eagerVerdictOLSC(c *olsc.Code, data *bitvec.Line, check *bitvec.Vector, decode bool) ecc.Reading {
	d := *data
	switch c.Decode(bitvec.VectorOf(d[:], bitvec.LineBits), check).Status {
	case olsc.OK:
		return ecc.NoError
	case olsc.Corrected:
		if decode {
			*data = d
		}
		return ecc.Corrected
	}
	return ecc.Uncorrectable
}

// eagerVerdictDECTED leaves a line read without decode as read, as the
// other codes do. No product path reads a DECTED line without decode (an
// evicted Initial line is under SECDED or OLSC); only this test's evict op
// on a write-back b'10 line does.
func eagerVerdictDECTED(data *bitvec.Line, check bch.Check, decode bool) ecc.Reading {
	d := *data
	switch bch.NewLine(2).Decode(bitvec.VectorOf(d[:], bitvec.LineBits), check).Status {
	case bch.OK:
		return ecc.NoError
	case bch.Corrected:
		if decode {
			*data = d
		}
		return ecc.Corrected
	}
	return ecc.Uncorrectable
}

// diffLine is one line of the differential run: the on-demand side's and
// the oracle's metadata, DFH entries and counters, kept apart.
type diffLine struct {
	covered        bitvec.Line // the payload the entry's checkbits cover
	p4Lazy, p4Eagr uint8
	eLazy, eEagr   eccEntry
	check          eagerCheck
	tagLazy        cache.Entry
	tagEagr        cache.Entry
	valid          bool // resident: readable until refetched, disabled or evicted
	hasEntry       bool
	code           lineCode
	dirty          bool
}

// checkbitVariant is one codec and training configuration of the run.
type checkbitVariant struct {
	name      string
	pol       policy
	olsc      int  // OLSC strength, 0 for SECDED
	dected    bool // lines can carry DECTED
	writeBack bool // dirty lines keep an entry and read as dirty
}

var checkbitVariants = []checkbitVariant{
	{name: "secded", pol: policy{limit: 1}},
	{name: "secded-polarity", pol: policy{limit: 1, polarity: true}},
	{name: "dected", pol: policy{promote: true, limit: 2}, dected: true},
	{name: "olsc2", pol: policy{limit: 2}, olsc: 2},
	{name: "olsc11-polarity", pol: policy{limit: 11, polarity: true}, olsc: 11},
	{name: "writeback", pol: policy{limit: 1, polarity: true}, dected: true, writeBack: true},
}

// TestOnDemandCheckbitsMatchEagerEncoder drives random fills, stores,
// re-protections of payloads the array does not hold, reads, soft flips,
// evictions and write verifications through codecs.observe (checkbits
// derived from the covered payload) and through the eager oracle (checkbits
// stored at encode time), for every codec, with and without polarity
// training. Observations, corrected data, classification outcomes, DFH
// transitions and counters must agree op by op.
func TestOnDemandCheckbitsMatchEagerEncoder(t *testing.T) {
	ops := 20000
	if testing.Short() {
		ops = 4000
	}
	for _, v := range checkbitVariants {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", v.name, seed), func(t *testing.T) {
				if err := runCheckbitDiff(v, seed, ops); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// FuzzOnDemandCheckbits runs the same differential from arbitrary seeds
// for every variant.
func FuzzOnDemandCheckbits(f *testing.F) {
	f.Add(uint64(1), uint8(0))
	f.Add(uint64(2), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, variant uint8) {
		v := checkbitVariants[int(variant)%len(checkbitVariants)]
		if err := runCheckbitDiff(v, seed, 500); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
	})
}

func runCheckbitDiff(v checkbitVariant, seed uint64, ops int) error {
	const lines = 64
	r := xrand.New(seed)
	perLine := make([][]faultmodel.Fault, lines)
	for i := range perLine {
		for n := r.Intn(4) * r.Intn(2); n > 0; n-- {
			perLine[i] = append(perLine[i], faultmodel.Fault{Bit: r.Intn(bitvec.LineBits), StuckAt: uint(r.Uint64() & 1)})
		}
	}
	arr := sram.New(lines, faultmodel.NewMapExplicit(faultmodel.Default(), bitvec.LineBits, 1.0, perLine), 0.6)
	m := newCodecs()
	if v.olsc > 0 {
		m.olsc = olsc.NewLine(v.olsc)
	}
	var ctrLazy, ctrEagr stats.Counters
	h := newHandles("diff.")
	ls := make([]diffLine, lines)
	for i := range ls {
		ls[i].tagLazy.Class, ls[i].tagEagr.Class = uint8(Initial), uint8(Initial)
	}

	// install encodes data on line id through both sides, as a fill, a
	// store or a write-back re-protection does.
	install := func(id int, data bitvec.Line) {
		l := &ls[id]
		state := DFH(l.tagLazy.Class)
		if state == Disabled { // a DFH reset
			l.tagLazy, l.tagEagr = cache.Entry{Class: uint8(Initial)}, cache.Entry{Class: uint8(Initial)}
			state = Initial
		}
		l.hasEntry = state != Stable0 || (v.writeBack && l.dirty)
		l.code = bySECDED
		switch {
		case v.olsc > 0:
			l.code = byOLSC
		case v.dected && state == Stable1 && (l.dirty || !v.writeBack):
			l.code = byDECTED
		}
		l.valid = true
		eL, eE := &l.eLazy, &l.eEagr
		if !l.hasEntry {
			eL, eE = nil, nil
		} else {
			l.covered = data
		}
		m.encode(state, data, &l.p4Lazy, eL)
		eagerEncode(&m, state, l.code, data, &l.p4Eagr, eE, &l.check)
	}

	// observe reads line id through both sides and classifies it.
	observe := func(op string, id int, read bitvec.Line, decode bool, o observation) error {
		l := &ls[id]
		o.state, o.stuck = DFH(l.tagLazy.Class), untested
		if !l.valid {
			return nil
		}
		if l.hasEntry {
			o.code = l.code
		}
		eL, eE := &l.eLazy, &l.eEagr
		if !l.hasEntry {
			eL, eE = nil, nil
		}
		oL, oE := o, o
		dL, dE := read, read
		sL := m.observe(&oL, &dL, l.covered, l.p4Lazy, eL, decode)
		sE := eagerObserve(&m, &oE, &dE, l.p4Eagr, eE, &l.check, decode)
		if oL != oE || dL != dE || sL != sE {
			return fmt.Errorf("%s line %d (%v, code %d): on-demand %+v data %v parity %#x, eager %+v data %v parity %#x",
				op, id, o.state, l.code, oL, dL != read, sL, oE, dE != read, sE)
		}
		outL, outE := v.pol.next(oL), v.pol.next(oE)
		if outL.act == probe {
			oL.stuck = arr.StuckCells(id, dL)
			oE.stuck = oL.stuck
			outL, outE = v.pol.next(oL), v.pol.next(oE)
		}
		if outL != outE {
			return fmt.Errorf("%s line %d: outcomes %+v vs %+v", op, id, outL, outE)
		}
		h.count(&ctrLazy, outL.ev)
		h.count(&ctrEagr, outE.ev)
		h.set(&ctrLazy, &l.tagLazy, outL.next)
		h.set(&ctrEagr, &l.tagEagr, outE.next)
		if o.state == Initial && (outL.next == Stable0 || outL.next == Stable1) {
			l.p4Lazy, l.p4Eagr = uint8(parity.Fold(sL)), uint8(parity.Fold(sE))
		}
		if outL.next == Disabled || outL.act == refetch || (outL.next == Stable0 && !l.dirty) {
			l.hasEntry = false
		}
		if outL.next == Disabled || outL.act == refetch || (op == "evict" && outL.next != Stable0) {
			// Only a clean contention victim stays resident after
			// eviction training.
			l.valid = false
		}
		return nil
	}

	for i := 0; i < lines; i++ {
		data := randomLine(r)
		arr.Write(i, data)
		install(i, data)
	}
	for op := 0; op < ops; op++ {
		id := r.Intn(lines)
		l := &ls[id]
		var err error
		switch k := r.Intn(10); {
		case k < 2: // fill or store
			data := randomLine(r)
			if v.writeBack {
				l.dirty = r.Intn(2) == 0
			}
			arr.Write(id, data)
			if DFH(l.tagLazy.Class) != Disabled || r.Intn(4) == 0 {
				install(id, data)
			}
		case k < 3: // re-protect a payload the array does not hold
			if l.valid {
				d := arr.Read(id)
				d.FlipBit(r.Intn(bitvec.LineBits))
				install(id, d)
			}
		case k < 4: // soft error
			arr.InjectSoftError(id, r.Intn(bitvec.LineBits))
		case k < 8: // read hit
			err = observe("read", id, arr.Read(id), true, observation{dirty: v.writeBack && l.dirty})
		case k < 9: // eviction training
			err = observe("evict", id, arr.Read(id), false, observation{})
		default: // write verification of a dirty line
			if v.writeBack {
				err = observe("verify", id, arr.Read(id), true, observation{dirty: true})
			}
		}
		if err != nil {
			return fmt.Errorf("op %d: %w", op, err)
		}
		if ls[id].tagLazy != ls[id].tagEagr {
			return fmt.Errorf("op %d line %d: DFH entries %+v vs %+v", op, id, ls[id].tagLazy, ls[id].tagEagr)
		}
	}
	if got, want := ctrLazy.String(), ctrEagr.String(); got != want {
		return fmt.Errorf("counters differ:\non-demand %v\neager     %v", got, want)
	}
	return nil
}

// checkedScheme wraps a write-through Scheme, records the payload each
// hook gave the line's entry checkbits to cover, and around every hook
// checks that the array's ground truth of every line with a live entry of
// the hook's ECC set still equals it — the premise that lets observe
// derive the checkbits from ReadTrue.
type checkedScheme struct {
	*Scheme
	covered map[int]bitvec.Line
	fail    func(error)
}

func (c checkedScheme) encoded(set, way int, data bitvec.Line) {
	if s := c.dfhOf(set, way); s == Initial || s == Stable1 {
		c.covered[c.h.Tags().LineID(set, way)] = data
	}
}

func (c checkedScheme) OnFill(set, way int, data bitvec.Line) {
	c.check(set, c.h.Tags().LineID(set, way))
	c.Scheme.OnFill(set, way, data)
	c.encoded(set, way, data)
	c.check(set, -1)
}

func (c checkedScheme) OnWriteHit(set, way int, data bitvec.Line) {
	c.check(set, c.h.Tags().LineID(set, way))
	c.Scheme.OnWriteHit(set, way, data)
	c.encoded(set, way, data)
	c.check(set, -1)
}

func (c checkedScheme) OnReadHit(set, way int, data *bitvec.Line) protection.Verdict {
	c.check(set, -1)
	v := c.Scheme.OnReadHit(set, way, data)
	c.check(set, -1)
	return v
}

func (c checkedScheme) OnEvict(set, way int) {
	c.check(set, -1)
	c.Scheme.OnEvict(set, way)
	c.check(set, -1)
}

// check verifies the live entries of l2Set's ECC set, skipping line skip
// (a line whose payload the host has just rewritten ahead of its hook).
// Checking before each hook covers the copy of a dying entry that
// contention training reads: it is taken from a live entry of this set.
func (c checkedScheme) check(l2Set, skip int) {
	if err := liveEntriesCovered(c.Scheme, c.covered, c.ecc.setFor(l2Set), skip); err != nil {
		c.fail(err)
	}
}

// liveEntriesCovered checks every valid entry of ECC set eSet (all sets
// when eSet < 0): its line is a valid b'01 or b'10 line whose ReadTrue is
// the payload its checkbits were last derived from.
func liveEntriesCovered(k *Scheme, covered map[int]bitvec.Line, eSet, skip int) error {
	tags, l2 := k.ecc.tags, k.h.Tags()
	sets := []int{eSet}
	if eSet < 0 {
		sets = sets[:0]
		for s := 0; s < tags.Config().Sets; s++ {
			sets = append(sets, s)
		}
	}
	for _, s := range sets {
		for _, te := range tags.Set(s) {
			if !te.Valid || int(te.Tag) == skip {
				continue
			}
			line := int(te.Tag)
			le := l2.Entry(line/l2.Config().Ways, line%l2.Config().Ways)
			state := DFH(le.Class)
			if !le.Valid || (state != Initial && state != Stable1) {
				return fmt.Errorf("line %d: live ECC entry for a %v line (valid %v)", line, state, le.Valid)
			}
			if k.h.Data().ReadTrue(line) != covered[line] {
				return fmt.Errorf("line %d (%v): ReadTrue is not the payload its checkbits cover", line, state)
			}
		}
	}
	return nil
}

// TestReadTrueIsTheCoveredPayload pins the premise of on-demand checkbits
// in whole-GPU runs of every write-through variant, under persistent and
// mixed fault classes: the ground truth of each line with a live ECC entry
// is the payload its checkbits were derived from, around every scheme hook
// and after every kernel.
func TestReadTrueIsTheCoveredPayload(t *testing.T) {
	variants := map[string]Config{
		"killi-1:64":        {Ratio: 64},
		"killi-dected-1:64": {Ratio: 64, UseDECTED: true},
		"killi-olsc2-1:64":  {Ratio: 64, OLSCStrength: 2},
	}
	requests := 1500
	if testing.Short() {
		requests = 500
	}
	for name, cfg := range variants {
		for _, classes := range []string{"persistent", "mixed:i=0.3@0.5,a=0.1@0.05,t=2e-08"} {
			for _, wl := range []string{"xsbench", "fft", "lulesh"} {
				t.Run(name+"/"+classes+"/"+wl, func(t *testing.T) {
					spec, err := faultmodel.ParseClassSpec(classes)
					if err != nil {
						t.Fatal(err)
					}
					w, err := workload.ByName(wl)
					if err != nil {
						t.Fatal(err)
					}
					g := gpu.DefaultConfig()
					g.Voltage, g.FaultSeed, g.Classes = 0.625, 7, spec
					var schemes []checkedScheme
					var first error
					sys := gpu.New(g, func() protection.Scheme {
						c := checkedScheme{New(cfg), map[int]bitvec.Line{}, func(err error) {
							if first == nil {
								first = err
							}
						}}
						schemes = append(schemes, c)
						return c
					})
					traces := w.TraceSet(g.CUs, requests, []uint64{1, 2, 3})
					for kern := 0; kern < traces.Kernels(); kern++ {
						sys.Run(traces.Kernel(kern))
						for _, c := range schemes {
							if err := liveEntriesCovered(c.Scheme, c.covered, -1, -1); err != nil && first == nil {
								first = err
							}
						}
						if first != nil {
							t.Fatalf("kernel %d: %v", kern, first)
						}
					}
				})
			}
		}
	}
}
