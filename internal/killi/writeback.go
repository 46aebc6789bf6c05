package killi

import (
	"errors"
	"fmt"

	"killi/internal/bitvec"
	"killi/internal/cache"
	"killi/internal/ecc/parity"
	"killi/internal/faultmodel"
	"killi/internal/sram"
	"killi/internal/stats"
)

// Pre-interned handles for the write-back variant's counters.
var (
	cWBWriteBypass   = stats.Intern("wb.write_bypass")
	cWBWrites        = stats.Intern("wb.writes")
	cWBWriteDiverted = stats.Intern("wb.write_verify_diverted")
	cWBReadBypass    = stats.Intern("wb.read_bypass")
	cWBReadMisses    = stats.Intern("wb.read_misses")
	cWBReadHits      = stats.Intern("wb.read_hits")
	cWBErrorRefetch  = stats.Intern("wb.error_refetch")
	cWBDataLoss      = stats.Intern("wb.data_loss")
	cWBWritebacks    = stats.Intern("wb.writebacks")
	cWBECCContention = stats.Intern("wb.ecc_contention_evictions")

	wb = newHandles("wb.")
)

// ErrDataLoss reports an uncorrectable error on a dirty line: unlike the
// write-through configuration, a write-back cache holds the only copy of
// modified data, so a detected-but-uncorrectable pattern cannot be
// recovered by refetching.
var ErrDataLoss = errors.New("killi: uncorrectable error on dirty line")

// WriteBackConfig parameterizes the write-back variant.
type WriteBackConfig struct {
	Sets, Ways int
	// Ratio sizes the ECC cache relative to the cache's line count.
	Ratio int
	// Assoc is the ECC cache associativity.
	Assoc int
}

// WriteBackCache is the §5.6.1 extension: Killi on a write-back cache.
//
// The policy difference from the write-through design is how dirty lines
// are protected. A clean line can always be refetched, so parity detection
// suffices; a dirty line is the only copy of its data, so Killi raises the
// correction strength one level relative to the line's LV fault count:
//
//	dirty + DFH b'00 (no LV fault) → SECDED in the ECC cache
//	dirty + DFH b'10 (1 LV fault)  → DECTED in the ECC cache
//
// matching the failure probability a safe-voltage SECDED cache would give
// dirty data. The 21-bit DECTED code fits the ECC cache entry because the
// 12 parity overflow bits are free after training (11 + 12 = 23 ≥ 21) — no
// extra storage. Lines still in DFH b'01 keep the training-time
// SECDED + 16-bit parity and are treated like dirty b'00 lines.
//
// The cache always runs the §5.6.2 polarity test before it trusts a line.
// Write verification and training see only the faults the written data
// unmasks, and a masked multi-bit fault under dirty data corrupts the only
// copy silently: without the test, 67 of the 1,768 reads of the
// examples/writeback workload returned wrong data with no error.
//
// This type is a self-contained single-level cache (with its own backing
// store) rather than a protection.Scheme, because the write-through Scheme
// contract assumes every line is refetchable.
type WriteBackCache struct {
	cfg     WriteBackConfig
	tags    *cache.Cache
	data    *sram.Array
	backing map[uint64]bitvec.Line

	codecs
	pol policy
	ecc *eccCache

	parity4 []uint8
	// covered is the payload each line's entry checkbits were last
	// derived from.
	covered []bitvec.Line
	dirty   []bool
	useDEC  []bool // the line's entry holds DECTED (dirty b'10)

	ctr stats.Counters
}

// NewWriteBack builds a write-back Killi cache over the given fault map at
// normalized voltage vNorm.
func NewWriteBack(cfg WriteBackConfig, faults *faultmodel.Map, vNorm float64) *WriteBackCache {
	if cfg.Ratio <= 0 {
		cfg.Ratio = 64
	}
	if cfg.Assoc <= 0 {
		cfg.Assoc = 4
	}
	tags := cache.New(cache.Config{Sets: cfg.Sets, Ways: cfg.Ways, LineBytes: 64})
	lines := tags.Config().Lines()
	c := &WriteBackCache{
		cfg:     cfg,
		tags:    tags,
		data:    sram.New(lines, faults, vNorm),
		backing: make(map[uint64]bitvec.Line),
		codecs:  newCodecs(),
		pol:     policy{limit: 1, polarity: true},
		ecc:     newECCCache(lines, cfg.Ratio, cfg.Assoc),
		parity4: make([]uint8, lines),
		covered: make([]bitvec.Line, lines),
		dirty:   make([]bool, lines),
		useDEC:  make([]bool, lines),
	}
	tags.ForEach(func(set, way int, e *cache.Entry) { e.Class = uint8(Initial) })
	return c
}

// Stats exposes the cache's counters.
func (c *WriteBackCache) Stats() *stats.Counters { return &c.ctr }

// Write stores a full line. The data stays dirty in the cache until
// evicted or flushed.
func (c *WriteBackCache) Write(addr uint64, data bitvec.Line) error {
	set, tag := c.tags.Index(addr), c.tags.Tag(addr)
	way, hit := c.tags.Lookup(set, tag)
	if !hit {
		var err error
		way, err = c.allocate(set, tag)
		if err != nil {
			// No usable way: write through to backing.
			c.ctr.IncC(cWBWriteBypass)
			c.backing[addr/64] = data
			return nil
		}
	}
	c.tags.Touch(set, way)
	id := c.tags.LineID(set, way)
	c.data.Write(id, data)
	c.dirty[id] = true
	c.protect(set, way, id, data)
	c.ctr.IncC(cWBWrites)

	// §5.6.2-style write verification for unclassified lines: a dirty
	// store into a DFH b'01 line immediately reads back and checks, so
	// the only copy of modified data is never parked on a line that turns
	// out to be multi-bit faulty. The written data is the recheck's
	// reference; verification counts no read events. On failure the line
	// is disabled and the store lands safely in the backing store.
	if DFH(c.tags.Entry(set, way).Class) != Initial {
		return nil
	}
	got := c.data.Read(id)
	if got == data {
		return nil
	}
	o := observation{state: Initial, dirty: true, stuck: untested}
	c.observe(&o, &got, c.covered[id], c.parity4[id], c.entry(set, id, Initial), true)
	o.recheckOK = o.recheckOK && got == data
	if out := c.classify(o, id, data); out.act == deliver || out.act == deliverCorrected {
		c.setWBDFH(set, way, out.next)
		c.protect(set, way, id, data)
		return nil
	}
	c.setWBDFH(set, way, Disabled)
	c.ecc.invalidate(set, id)
	c.dirty[id] = false
	c.backing[addr/64] = data
	c.ctr.IncC(cWBWriteDiverted)
	return nil
}

// Read returns the line's data, correcting errors where possible. A clean
// line with an uncorrectable error is refetched transparently; a dirty one
// returns ErrDataLoss.
func (c *WriteBackCache) Read(addr uint64) (bitvec.Line, error) {
	set, tag := c.tags.Index(addr), c.tags.Tag(addr)
	way, hit := c.tags.Lookup(set, tag)
	if !hit {
		way, err := c.allocate(set, tag)
		if err != nil {
			c.ctr.IncC(cWBReadBypass)
			return c.backing[addr/64], nil
		}
		data := c.backing[addr/64]
		id := c.tags.LineID(set, way)
		c.data.Write(id, data)
		c.dirty[id] = false
		c.protect(set, way, id, data)
		c.ctr.IncC(cWBReadMisses)
		return data, nil
	}
	c.tags.Touch(set, way)
	c.ctr.IncC(cWBReadHits)
	id := c.tags.LineID(set, way)
	data := c.data.Read(id)
	clean, err := c.verify(set, way, id, &data)
	if err != nil {
		return bitvec.Line{}, err
	}
	if clean {
		return data, nil
	}
	// Uncorrectable but the line is clean: refetch from backing, reinstall
	// elsewhere on the next access.
	c.ctr.IncC(cWBErrorRefetch)
	c.tags.Invalidate(set, way)
	return c.backing[addr/64], nil
}

// Flush writes every dirty line back to the backing store, verifying each
// on the way out. It returns the first data-loss error encountered, if any.
func (c *WriteBackCache) Flush() error {
	var firstErr error
	c.tags.ForEach(func(set, way int, e *cache.Entry) {
		if !e.Valid {
			return
		}
		id := c.tags.LineID(set, way)
		if !c.dirty[id] {
			return
		}
		if err := c.writeback(set, way, id, e); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	return firstErr
}

// allocate finds a way for a new line, writing back the victim if dirty.
func (c *WriteBackCache) allocate(set int, tag uint64) (int, error) {
	way, ok := c.tags.Victim(set, nil)
	if !ok {
		return -1, errors.New("killi: set fully disabled")
	}
	e := c.tags.Entry(set, way)
	if e.Valid {
		id := c.tags.LineID(set, way)
		if c.dirty[id] {
			// A lost dirty victim was already counted by verify; the
			// allocation itself proceeds.
			_ = c.writeback(set, way, id, e)
		}
		c.ecc.invalidate(set, id)
	}
	if c.tags.Entry(set, way).Disabled {
		return -1, errors.New("killi: victim disabled during writeback")
	}
	c.tags.Install(set, way, tag)
	return way, nil
}

// writeback verifies and writes a dirty line to backing.
func (c *WriteBackCache) writeback(set, way, id int, e *cache.Entry) error {
	data := c.data.Read(id)
	clean, err := c.verify(set, way, id, &data)
	if err != nil {
		return err
	}
	if !clean {
		c.ctr.IncC(cWBDataLoss)
		return ErrDataLoss
	}
	c.save(set, e.Tag, id, data)
	return nil
}

// save writes a dirty line's verified data to the backing store and marks
// the line clean. It is the one place a line is saved, so a line verify has
// already retired through save-and-deliver is not saved or counted again by
// the eviction that checked it.
func (c *WriteBackCache) save(set int, tag uint64, id int, data bitvec.Line) {
	if !c.dirty[id] {
		return
	}
	c.backing[c.lineAddr(set, tag)] = data
	c.dirty[id] = false
	c.ctr.IncC(cWBWritebacks)
}

// lineAddr reconstructs the line address from (set, tag).
func (c *WriteBackCache) lineAddr(set int, tag uint64) uint64 {
	return tag*uint64(c.cfg.Sets) + uint64(set)
}

// protect (re)generates metadata for a line per the §5.6.1 policy.
func (c *WriteBackCache) protect(set, way, id int, data bitvec.Line) {
	state := DFH(c.tags.Entry(set, way).Class)
	if state == Disabled {
		panic("killi: protect on disabled line")
	}
	var entry *eccEntry
	if state != Stable0 || c.dirty[id] {
		entry = c.allocWB(set, way)
	}
	// Dirty data on a fault-free line gets SECDED on demand; on a 1-fault
	// line it is upgraded to DECTED in the entry's 23 free bits. The entry's
	// checkbits cover data, which after a correction need not be what the
	// array holds, so the payload is kept for observe.
	c.useDEC[id] = state == Stable1 && c.dirty[id]
	if entry != nil {
		c.covered[id] = data
	}
	c.encode(state, data, &c.parity4[id], entry)
}

// allocWB allocates an ECC entry, evicting a contending line (which, in
// the write-back design, must be written back first if dirty).
func (c *WriteBackCache) allocWB(set, way int) *eccEntry {
	id := c.tags.LineID(set, way)
	entry, evicted, old := c.ecc.allocate(set, id)
	if evicted >= 0 {
		c.ctr.IncC(cWBECCContention)
		ways := c.tags.Config().Ways
		vSet, vWay := evicted/ways, evicted%ways
		ve := c.tags.Entry(vSet, vWay)
		if ve.Valid {
			vID := c.tags.LineID(vSet, vWay)
			c.tags.Invalidate(vSet, vWay)
			if c.dirty[vID] {
				// The victim loses its checkbits: it cannot stay dirty in
				// the cache. Write it back now (§5.6.1's extra ECC-cache
				// pressure from dirty lines), verifying against the dying
				// entry since the ECC slot has already been reassigned.
				data := c.data.Read(vID)
				if clean, _ := c.verifyWith(vSet, vWay, vID, &data, &old); clean {
					c.save(vSet, ve.Tag, vID, data)
				}
			}
		}
	}
	return entry
}

// entry returns the ECC entry of a line that must hold one.
func (c *WriteBackCache) entry(set, id int, state DFH) *eccEntry {
	e, _, _, hit := c.ecc.lookup(set, id)
	if !hit {
		panic(fmt.Sprintf("killi: write-back %v line without ECC entry", state))
	}
	return e
}

// classify runs Table 2 on o, running the polarity test when the row
// asks for it.
func (c *WriteBackCache) classify(o observation, id int, data bitvec.Line) outcome {
	out := c.pol.next(o)
	if out.act == probe {
		o.stuck = c.data.StuckCells(id, data)
		out = c.pol.next(o)
	}
	return out
}

// verify checks a line against its metadata, correcting data in place.
// clean=false with err=nil means detected-uncorrectable on clean data
// (refetchable); ErrDataLoss is returned for dirty data.
func (c *WriteBackCache) verify(set, way, id int, data *bitvec.Line) (clean bool, err error) {
	var entry *eccEntry
	if state := DFH(c.tags.Entry(set, way).Class); state != Stable0 || c.dirty[id] {
		entry = c.entry(set, id, state)
	}
	return c.verifyWith(set, way, id, data, entry)
}

// verifyWith is verify with an explicit metadata entry, so departing lines
// whose ECC slot was already reassigned can still be checked against a
// copy of the dying entry. entry may be nil only for clean Stable0 lines.
// The write policy: a trained dirty line keeps its code (DECTED on b'10),
// a line retired with trustworthy data saves it, and untrustworthy dirty
// data is reported lost.
func (c *WriteBackCache) verifyWith(set, way, id int, data *bitvec.Line, entry *eccEntry) (clean bool, err error) {
	o := observation{state: DFH(c.tags.Entry(set, way).Class), dirty: c.dirty[id], stuck: untested}
	if o.state == Disabled {
		panic("killi: verify on disabled line")
	}
	if o.state == Stable1 && c.useDEC[id] {
		o.code = byDECTED
	}
	stored := c.observe(&o, data, c.covered[id], c.parity4[id], entry, true)
	out := c.classify(o, id, *data)
	wb.count(&c.ctr, out.ev)
	c.setWBDFH(set, way, out.next)
	if o.state == Initial && (out.next == Stable0 || out.next == Stable1) {
		c.parity4[id] = uint8(parity.Fold(stored))
	}
	switch out.act {
	case deliver, deliverCorrected:
		switch {
		case o.state == Initial && out.next == Stable1 && c.tags.Entry(set, way).Valid:
			c.protect(set, way, id, *data)
		case o.state != Stable0 && out.next == Stable0 && !o.dirty:
			c.ecc.invalidate(set, id)
		}
		return true, nil
	case refetch:
		c.tags.Invalidate(set, way)
		return false, nil
	}
	c.ecc.invalidate(set, id)
	switch {
	case out.act == saveAndDeliver:
		c.save(set, c.tags.Entry(set, way).Tag, id, *data)
		return true, nil
	case o.dirty:
		c.ctr.IncC(cWBDataLoss)
		return false, fmt.Errorf("%w: set %d way %d", ErrDataLoss, set, way)
	}
	return false, nil
}

// setWBDFH mirrors setDFH for the write-back variant.
func (c *WriteBackCache) setWBDFH(set, way int, next DFH) {
	wb.set(&c.ctr, c.tags.Entry(set, way), next)
}
