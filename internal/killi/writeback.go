package killi

import (
	"errors"
	"fmt"

	"killi/internal/bitvec"
	"killi/internal/cache"
	"killi/internal/ecc/bch"
	"killi/internal/ecc/parity"
	"killi/internal/ecc/secded"
	"killi/internal/faultmodel"
	"killi/internal/sram"
	"killi/internal/stats"
)

// Pre-interned handles for the write-back variant's counters.
var (
	cWBWriteBypass    = stats.Intern("wb.write_bypass")
	cWBWrites         = stats.Intern("wb.writes")
	cWBWriteDiverted  = stats.Intern("wb.write_verify_diverted")
	cWBReadBypass     = stats.Intern("wb.read_bypass")
	cWBReadMisses     = stats.Intern("wb.read_misses")
	cWBReadHits       = stats.Intern("wb.read_hits")
	cWBErrorRefetch   = stats.Intern("wb.error_refetch")
	cWBDataLoss       = stats.Intern("wb.data_loss")
	cWBWritebacks     = stats.Intern("wb.writebacks")
	cWBECCContention  = stats.Intern("wb.ecc_contention_evictions")
	cWBInvertedMulti  = stats.Intern("wb.inverted_unmasked_multi")
	cWBInvertedSingle = stats.Intern("wb.inverted_unmasked_single")
	cWBCorrectedReads = stats.Intern("wb.corrected_reads")
	cWBLinesDisabled  = stats.Intern("wb.lines_disabled")
	cWBDFHTransition  = dfhTransitions("wb.")
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
	// InvertedTraining applies the §5.6.2 polarity check before a line is
	// classified fault-free, unmasking hidden stuck-at faults. Strongly
	// recommended for write-back operation: masked multi-bit faults under
	// dirty data are the variant's residual silent-corruption window.
	InvertedTraining bool
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
// This type is a self-contained single-level cache (with its own backing
// store) rather than a protection.Scheme, because the write-through Scheme
// contract assumes every line is refetchable.
type WriteBackCache struct {
	cfg     WriteBackConfig
	tags    *cache.Cache
	data    *sram.Array
	backing map[uint64]bitvec.Line

	secded *secded.Code
	dected *bch.Code
	p16    parity.Scheme
	p4     parity.Scheme
	ecc    *eccCache

	parity4 []uint8
	dirty   []bool
	secdedC []secded.Check // valid when protection is SECDED-in-ECC-cache
	useDEC  []bool

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
		secded:  secded.New(bitvec.LineBits),
		dected:  bch.NewLine(2),
		p16:     parity.NewInterleaved(16),
		p4:      parity.NewInterleaved(4),
		ecc:     newECCCache(lines, cfg.Ratio, cfg.Assoc),
		parity4: make([]uint8, lines),
		dirty:   make([]bool, lines),
		secdedC: make([]secded.Check, lines),
		useDEC:  make([]bool, lines),
	}
	tags.ForEach(func(set, way int, e *cache.Entry) { e.Class = int(Initial) })
	return c
}

// Stats exposes the cache's counters.
func (c *WriteBackCache) Stats() *stats.Counters { return &c.ctr }

// DFHOf returns the DFH state at (set, way).
func (c *WriteBackCache) DFHOf(set, way int) DFH {
	return DFH(c.tags.Entry(set, way).Class)
}

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
	// out to be multi-bit faulty. On failure the line is disabled and the
	// store lands safely in the backing store.
	if DFH(c.tags.Entry(set, way).Class) == Initial {
		got := c.data.Read(id)
		if got != data {
			entry, _, _, hit := c.ecc.lookup(set, id)
			if hit {
				res := c.secded.DecodeLine(&got, entry.check)
				if (res.Status == secded.CorrectedData || res.Status == secded.CorrectedCheck) && got == data {
					if !c.cfg.InvertedTraining || invertedFaultCount(c.data, id, data) < 2 {
						// Single stuck-at cell: classify as a one-fault
						// line right away; protect() re-encodes per the
						// dirty Stable1 policy (DECTED).
						c.setWBDFH(set, way, Stable1)
						c.protect(set, way, id, data)
						return nil
					}
				}
			}
			// Uncorrectable at write time: disable, divert the store.
			c.setWBDFH(set, way, Disabled)
			c.ecc.invalidate(set, id)
			c.dirty[id] = false
			c.backing[addr/64] = data
			c.ctr.IncC(cWBWriteDiverted)
		}
	}
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
	lineAddr := c.lineAddr(set, e.Tag)
	c.backing[lineAddr] = data
	c.dirty[id] = false
	c.ctr.IncC(cWBWritebacks)
	return nil
}

// lineAddr reconstructs the line address from (set, tag).
func (c *WriteBackCache) lineAddr(set int, tag uint64) uint64 {
	return tag*uint64(c.cfg.Sets) + uint64(set)
}

// protect (re)generates metadata for a line per the §5.6.1 policy.
func (c *WriteBackCache) protect(set, way, id int, data bitvec.Line) {
	switch DFH(c.tags.Entry(set, way).Class) {
	case Initial:
		p16 := c.p16.Generate(data)
		c.parity4[id] = uint8(p16 & 0xf)
		entry := c.allocWB(set, way)
		entry.parity12 = uint16(p16 >> 4)
		entry.check = c.secded.EncodeLine(data)
		c.useDEC[id] = false
	case Stable0:
		c.parity4[id] = uint8(c.p4.Generate(data))
		if c.dirty[id] {
			// Dirty data on a fault-free line: SECDED on demand.
			entry := c.allocWB(set, way)
			entry.check = c.secded.EncodeLine(data)
			c.useDEC[id] = false
		}
	case Stable1:
		c.parity4[id] = uint8(c.p4.Generate(data))
		entry := c.allocWB(set, way)
		if c.dirty[id] {
			// Dirty data on a 1-fault line: upgrade to DECTED using the
			// entry's 23 free bits.
			entry.dected = c.dected.Encode(bitvec.VectorOf(data[:], bitvec.LineBits))
			c.useDEC[id] = true
		} else {
			entry.check = c.secded.EncodeLine(data)
			entry.dected = bch.Check{}
			c.useDEC[id] = false
		}
	default:
		panic("killi: protect on disabled line")
	}
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
			if c.dirty[vID] {
				// The victim loses its checkbits: it cannot stay dirty in
				// the cache. Write it back now (§5.6.1's extra ECC-cache
				// pressure from dirty lines), verifying against the dying
				// entry since the ECC slot has already been reassigned.
				data := c.data.Read(vID)
				if clean, _ := c.verifyWith(vSet, vWay, vID, &data, &old); clean {
					c.backing[c.lineAddr(vSet, ve.Tag)] = data
					c.dirty[vID] = false
					c.ctr.IncC(cWBWritebacks)
				}
			}
			c.tags.Invalidate(vSet, vWay)
		}
	}
	return entry
}

// verify checks a line against its metadata, correcting data in place.
// clean=false with err=nil means detected-uncorrectable on clean data
// (refetchable); ErrDataLoss is returned for dirty data.
func (c *WriteBackCache) verify(set, way, id int, data *bitvec.Line) (clean bool, err error) {
	var entry *eccEntry
	if state := DFH(c.tags.Entry(set, way).Class); state != Stable0 || c.dirty[id] {
		got, _, _, hit := c.ecc.lookup(set, id)
		if !hit {
			panic(fmt.Sprintf("killi: write-back %v line without ECC entry", state))
		}
		entry = got
	}
	return c.verifyWith(set, way, id, data, entry)
}

// verifyWith is verify with an explicit metadata entry, so departing lines
// whose ECC slot was already reassigned can still be checked against a
// copy of the dying entry. entry may be nil only for clean Stable0 lines.
func (c *WriteBackCache) verifyWith(set, way, id int, data *bitvec.Line, entry *eccEntry) (clean bool, err error) {
	fail := func() (bool, error) {
		c.setWBDFH(set, way, Disabled)
		c.ecc.invalidate(set, id)
		if c.dirty[id] {
			c.ctr.IncC(cWBDataLoss)
			return false, fmt.Errorf("%w: set %d way %d", ErrDataLoss, set, way)
		}
		return false, nil
	}
	switch DFH(c.tags.Entry(set, way).Class) {
	case Initial:
		stored16 := uint64(c.parity4[id]) | uint64(entry.parity12)<<4
		_, segMis := c.p16.Check(*data, stored16)
		syn, gErr := c.secded.SyndromeLine(*data, entry.check)
		switch {
		case segMis == 0 && syn == 0 && !gErr:
			if c.cfg.InvertedTraining {
				switch faults := invertedFaultCount(c.data, id, *data); {
				case faults >= 2:
					// ≥2 stuck cells hide behind data that passed parity
					// and SECDED. Usually every fault is masked (data
					// fine), but a zero-syndrome aliasing pattern is also
					// possible, so a clean line is refetched rather than
					// trusted. A dirty line has no other copy; it is
					// saved and delivered (the documented residual risk).
					c.setWBDFH(set, way, Disabled)
					c.ecc.invalidate(set, id)
					c.ctr.IncC(cWBInvertedMulti)
					if c.dirty[id] {
						e := c.tags.Entry(set, way)
						c.backing[c.lineAddr(set, e.Tag)] = *data
						c.dirty[id] = false
						c.ctr.IncC(cWBWritebacks)
						return true, nil
					}
					return false, nil
				case faults == 1:
					c.setWBDFH(set, way, Stable1)
					c.parity4[id] = uint8(parity.Fold(stored16))
					c.protect(set, way, id, *data)
					c.ctr.IncC(cWBInvertedSingle)
					return true, nil
				}
			}
			c.setWBDFH(set, way, Stable0)
			c.parity4[id] = uint8(parity.Fold(stored16))
			if c.dirty[id] {
				// Keep SECDED for the dirty data.
				entry.check = c.secded.EncodeLine(*data)
			} else {
				c.ecc.invalidate(set, id)
			}
			return true, nil
		case segMis == 1 && syn != 0 && gErr:
			res := c.secded.DecodeLine(data, entry.check)
			if res.Status != secded.CorrectedData && res.Status != secded.CorrectedCheck {
				return fail()
			}
			if _, bad := c.p16.Check(*data, stored16); bad != 0 {
				return fail()
			}
			if c.cfg.InvertedTraining {
				if faults := invertedFaultCount(c.data, id, *data); faults >= 2 {
					// More stuck cells hide behind the corrected data:
					// retire the line; refetch if clean, save-and-deliver
					// if dirty.
					c.setWBDFH(set, way, Disabled)
					c.ecc.invalidate(set, id)
					c.ctr.IncC(cWBInvertedMulti)
					if c.dirty[id] {
						e := c.tags.Entry(set, way)
						c.backing[c.lineAddr(set, e.Tag)] = *data
						c.dirty[id] = false
						c.ctr.IncC(cWBWritebacks)
						return true, nil
					}
					return false, nil
				}
			}
			c.ctr.IncC(cWBCorrectedReads)
			c.setWBDFH(set, way, Stable1)
			c.parity4[id] = uint8(parity.Fold(stored16))
			if c.dirty[id] {
				entry.dected = c.dected.Encode(bitvec.VectorOf(data[:], bitvec.LineBits))
				c.useDEC[id] = true
			}
			return true, nil
		default:
			return fail()
		}
	case Stable0:
		if c.dirty[id] {
			res := c.secded.DecodeLine(data, entry.check)
			switch res.Status {
			case secded.OK:
				return true, nil
			case secded.CorrectedData, secded.CorrectedCheck:
				// Guard against ≥3-error aliases: corrected data must
				// agree with the stored 4-bit parity.
				if _, bad := c.p4.Check(*data, uint64(c.parity4[id])); bad != 0 {
					return fail()
				}
				c.ctr.IncC(cWBCorrectedReads)
				return true, nil
			default:
				return fail()
			}
		}
		if _, mism := c.p4.Check(*data, uint64(c.parity4[id])); mism != 0 {
			c.setWBDFH(set, way, Initial)
			c.tags.Invalidate(set, way)
			return false, nil
		}
		return true, nil
	case Stable1:
		if c.useDEC[id] {
			d := *data
			res := c.dected.Decode(bitvec.VectorOf(d[:], bitvec.LineBits), entry.dected)
			switch res.Status {
			case bch.OK:
				return true, nil
			case bch.Corrected:
				*data = d
				c.ctr.IncC(cWBCorrectedReads)
				return true, nil
			default:
				return fail()
			}
		}
		syn, gErr := c.secded.SyndromeLine(*data, entry.check)
		if syn == 0 && !gErr {
			return true, nil
		}
		if syn != 0 && gErr {
			res := c.secded.DecodeLine(data, entry.check)
			if res.Status == secded.CorrectedData || res.Status == secded.CorrectedCheck {
				if _, bad := c.p4.Check(*data, uint64(c.parity4[id])); bad != 0 {
					return fail()
				}
				c.ctr.IncC(cWBCorrectedReads)
				return true, nil
			}
		}
		return fail()
	default:
		panic("killi: verify on disabled line")
	}
}

// setWBDFH mirrors setDFH for the write-back variant.
func (c *WriteBackCache) setWBDFH(set, way int, next DFH) {
	e := c.tags.Entry(set, way)
	prev := DFH(e.Class)
	if prev != next {
		c.ctr.IncC(cWBDFHTransition[prev][next])
	}
	e.Class = int(next)
	if next == Disabled {
		e.Disabled = true
		e.Valid = false
		c.ctr.IncC(cWBLinesDisabled)
	}
}
