// Package killi implements the paper's contribution: runtime LV fault
// classification for a write-through cache using Detected Fault History
// (DFH) bits, decoupled parity-based detection, and an on-demand ECC cache
// — no MBIST anywhere.
//
// Per-line protection follows Table 1:
//
//	DFH b'00  stable, 0 faults   4-bit segmented parity
//	DFH b'01  initial, unknown   16-bit segmented parity + SECDED ECC
//	DFH b'10  stable, 1 fault    4-bit parity + SECDED ECC
//	DFH b'11  disabled           (≥2 faults; unusable until DFH reset)
//
// The 16 parity bits of an unknown line are split 4 in the cache proper and
// 12 in the ECC cache next to the 11 SECDED checkbits; once the line is
// classified the ECC cache entry is freed (b'00) or retained (b'10) and the
// cache-resident parity becomes a 4-bit fold over 128-bit segments.
//
// Classification happens on load hits and evictions by combining three
// signals (Table 2): segmented parity (S), the SECDED syndrome, and the
// SECDED global parity (G). The package also implements the paper's
// optional extensions: a DECTED-in-the-ECC-cache mode that reuses the 12
// freed parity bits to store a 21-bit DECTED code (§5.2), and inverted-data
// retraining that closes the multi-bit masked-fault window (§5.6.2).
//
// Table 2 itself is one pure function, policy.next, in this file. The
// write-through Scheme (with SECDED, SECDED plus DECTED promotion, or OLSC
// as its codec) and the write-back WriteBackCache are adapters around it:
// each reads a line into an observation through its codec and carries out the
// outcome under its write policy.
package killi

import (
	"fmt"
	"math/bits"

	"killi/internal/bitvec"
	"killi/internal/cache"
	"killi/internal/ecc"
	"killi/internal/ecc/olsc"
	"killi/internal/ecc/parity"
	"killi/internal/stats"
)

// DFH is the two-bit Detected Fault History state of a cache line
// (Table 1).
type DFH int

const (
	// Stable0 (b'00): zero known faults; 4-bit parity only.
	Stable0 DFH = 0
	// Initial (b'01): unknown fault count; 16-bit parity + SECDED.
	Initial DFH = 1
	// Stable1 (b'10): one known fault; 4-bit parity + SECDED.
	Stable1 DFH = 2
	// Disabled (b'11): two or more faults; line unusable until DFH reset.
	Disabled DFH = 3
)

// String renders the DFH state in the paper's b'xx notation.
func (d DFH) String() string {
	switch d {
	case Stable0:
		return "b'00"
	case Initial:
		return "b'01"
	case Stable1:
		return "b'10"
	case Disabled:
		return "b'11"
	default:
		return fmt.Sprintf("killi.DFH(%d)", int(d))
	}
}

// Valid reports whether d is one of the four architected states.
func (d DFH) Valid() bool { return d >= Stable0 && d <= Disabled }

// lineCode names the code behind an observation's verdict.
type lineCode uint8

const (
	bySECDED lineCode = iota // Table 2's 11-bit SECDED
	byDECTED                 // §5.2's 21-bit DECTED in the freed parity bits
	byOLSC                   // §5.5's OLSC(t)
)

// action is what the controller does with a line's data after a
// classification.
type action uint8

const (
	deliver          action = iota // send the data as read
	deliverCorrected               // send the data as the code corrected it
	refetch                        // drop the copy; the next level supplies it again
	disable                        // drop the copy: refetched if clean, lost if dirty
	saveAndDeliver                 // the data is right but the line retires: save it, send it
	probe                          // run the §5.6.2 polarity test, then classify again
)

// event is a set of counted classification events; each variant counts
// them under its own counter prefix (handles).
type event uint8

const (
	evCorrected event = 1 << iota
	evMiscorrection
	evInvertedSingle
	evInvertedMulti
	evPromotion
	evPostSingle
	evPostMulti
	numEvents = iota
)

var eventNames = [numEvents]string{"corrected_reads", "miscorrection_caught",
	"inverted_unmasked_single", "inverted_unmasked_multi", "dected_promotions",
	"post_training_single_error", "post_training_multi_error"}

// untested is observation.stuck before the polarity test has run (any
// negative count reads as untested).
const untested = -1

// observation is one reading of a line: everything Table 2 decides on.
type observation struct {
	state  DFH
	segMis int // mismatching parity segments: 16-bit for b'01, the 4-bit fold otherwise
	code   lineCode
	// verdict is the code's reading; a clean b'00 line carries no code.
	verdict ecc.Reading
	// recheckOK: the data to deliver agrees with its reference — the
	// stored parity after a correction, the written data on write
	// verification.
	recheckOK bool
	stuck     int  // the polarity test's stuck-cell count, or untested
	dirty     bool // the line holds the only copy of its data
}

// outcome is a classification: the line's next state, what happens to
// its data, and what to count.
type outcome struct {
	next DFH
	act  action
	ev   event
}

// policy is what a variant's codec and training add to Table 2.
type policy struct {
	promote  bool // §5.2: an even error count on a b'01 line promotes it to DECTED
	limit    int  // stuck cells a stable line may carry: 1 SECDED, 2 DECTED, t OLSC(t)
	polarity bool // §5.6.2 inverted training
}

// next is Table 2: the transition, data action and events for one
// observation. It is pure; read hits, eviction and contention training,
// and write-back verification all call it.
func (p policy) next(o observation) outcome {
	switch {
	case o.state == Initial:
		return p.initial(o)
	case o.state == Stable0 && !o.dirty:
		// 4-bit parity only.
		switch o.segMis {
		case 0:
			return outcome{Stable0, deliver, 0}
		case 1:
			// "Initial classification incorrect": a masked fault
			// unmasked or a soft error struck. Relearn.
			return outcome{Initial, refetch, evPostSingle}
		}
		return outcome{Disabled, disable, evPostMulti}
	case o.state == Stable0 || o.state == Stable1:
		return stable(o)
	}
	return outcome{Disabled, disable, 0}
}

func (p policy) initial(o observation) outcome {
	switch {
	case o.verdict == ecc.NoError && o.segMis == 0 && o.recheckOK:
		// No error — the most frequent case.
		return p.train(o, outcome{Stable0, deliver, 0})
	case o.verdict == ecc.Corrected && (o.segMis == 1 || o.code == byOLSC):
		// One error flips one interleaved segment; OLSC(t) corrects up
		// to t in any segments. A ≥3-error pattern can forge the SECDED
		// signature: the parity recheck of the corrected data catches
		// the miscorrection (§5.3's joint parity∧SECDED detection).
		if !o.recheckOK {
			return outcome{Disabled, disable, evMiscorrection}
		}
		return p.train(o, outcome{Stable1, deliverCorrected, evCorrected})
	case o.verdict == ecc.EvenDetected && p.promote && !o.dirty:
		// §5.2 keeps the line: refetch it under DECTED.
		return outcome{Stable1, refetch, evPromotion}
	}
	// Multi-bit errors, or parity and code disagree.
	return outcome{Disabled, disable, 0}
}

// train settles a row that classifies a line stable. Under §5.6.2 the
// polarity test's stuck-cell count decides: none means any error seen was
// transient (b'00), up to the codec's limit keeps the line under its code
// (b'10), more disable it — saving a dirty line's data, which its code
// vouched for.
func (p policy) train(o observation, out outcome) outcome {
	switch {
	case !p.polarity:
		return out
	case o.stuck < 0:
		return outcome{o.state, probe, 0}
	case o.stuck == 0:
		return outcome{Stable0, out.act, out.ev}
	case o.stuck > p.limit:
		if o.dirty {
			return outcome{Disabled, saveAndDeliver, evInvertedMulti}
		}
		return outcome{Disabled, disable, evInvertedMulti}
	}
	if out.act == deliver {
		out.ev |= evInvertedSingle // the test unmasked what the read could not see
	}
	if o.stuck == 2 && p.promote && !o.dirty {
		return outcome{Stable1, refetch, out.ev&^evCorrected | evPromotion}
	}
	return outcome{Stable1, out.act, out.ev}
}

// stable reads a classified line through its code: a b'10 line, or a
// dirty b'00 line under the write-back's SECDED.
func stable(o observation) outcome {
	switch {
	case o.verdict == ecc.NoError && o.recheckOK && (o.segMis == 0 || o.code != bySECDED):
		// §5.2/§5.5 codes deliver without a parity cross-check. Under
		// SECDED a b'10 line whose fault vanished (a transient that was
		// overwritten) is fault-free.
		if o.code == bySECDED {
			return outcome{Stable0, deliver, 0}
		}
		return outcome{o.state, deliver, 0}
	case o.verdict == ecc.Corrected && o.recheckOK:
		return outcome{o.state, deliverCorrected, evCorrected}
	case o.verdict == ecc.Corrected:
		return outcome{Disabled, disable, evMiscorrection}
	}
	// Parity disagrees while the code sees nothing, or more errors than
	// the code corrects.
	return outcome{Disabled, disable, 0}
}

// handles are a variant's interned classifier counters: one per event,
// one per prev→next DFH pair (prefix + "dfh_<prev>_to_<next>"), and
// prefix + "lines_disabled".
type handles struct {
	events   [numEvents]stats.Counter
	dfh      [4][4]stats.Counter
	disabled stats.Counter
}

func newHandles(prefix string) *handles {
	h := &handles{disabled: stats.Intern(prefix + "lines_disabled")}
	for i, n := range eventNames {
		h.events[i] = stats.Intern(prefix + n)
	}
	for p := Stable0; p <= Disabled; p++ {
		for n := Stable0; n <= Disabled; n++ {
			h.dfh[p][n] = stats.Intern(prefix + "dfh_" + p.String() + "_to_" + n.String())
		}
	}
	return h
}

func (h *handles) count(ctr *stats.Counters, ev event) {
	for ; ev != 0; ev &= ev - 1 {
		ctr.IncC(h.events[bits.TrailingZeros8(uint8(ev))])
	}
}

// set moves e to next, counting the transition, and returns the previous
// state. A disabled line is invalid until the next DFH reset.
func (h *handles) set(ctr *stats.Counters, e *cache.Entry, next DFH) DFH {
	prev := DFH(e.Class)
	if prev != next {
		ctr.IncC(h.dfh[prev][next])
	}
	e.Class = uint8(next)
	if next == Disabled {
		e.Disabled = true
		e.Valid = false
		ctr.IncC(h.disabled)
	}
	return prev
}

// codecs are the parity schemes and the OLSC code a variant reads lines
// through; SECDED and DECTED come from ecc.
type codecs struct {
	olsc *olsc.Code // nil unless OLSC mode
	p16  parity.Scheme
	p4   parity.Scheme
}

func newCodecs() codecs {
	return codecs{p16: parity.NewInterleaved(16), p4: parity.NewInterleaved(4)}
}

// encode writes a line's parity bits for data. A b'01 line keeps 16, 4
// resident and 12 in its entry; a stable line keeps the 4-bit fold. An
// entry stores no checkbits: they are a pure function of the payload they
// cover, which observe is given.
func (m *codecs) encode(state DFH, data bitvec.Line, parity4 *uint8, entry *eccEntry) {
	if state != Initial {
		*parity4 = uint8(m.p4.Generate(data))
		return
	}
	p16 := m.p16.Generate(data)
	*parity4 = uint8(p16 & 0xf)
	entry.parity12 = uint16(p16 >> 4)
}

// observe reads data into o against the line's resident parity bits and
// its entry (nil for a clean b'00 line), and returns the stored parity.
// payload is the data the line's checkbits cover: a read equal to it is
// clean under any code, and any other read is decoded against the
// checkbits o.code derives from it. With decode set a correction is made
// in place and rechecked against the parity — except under DECTED, which
// §5.2 delivers unrechecked; a departing line is classified without
// decoding.
func (m *codecs) observe(o *observation, data *bitvec.Line, payload bitvec.Line, parity4 uint8, entry *eccEntry, decode bool) uint64 {
	stored, ps := uint64(parity4), m.p4
	if o.state == Initial {
		stored, ps = stored|uint64(entry.parity12)<<4, m.p16
	}
	_, o.segMis = ps.Check(*data, stored)
	o.recheckOK = true
	if entry == nil || *data == payload {
		return stored
	}
	switch o.code {
	case byOLSC:
		o.verdict = ecc.ReadOLSC(m.olsc, data, payload, decode)
	case byDECTED:
		o.verdict = ecc.ReadDECTED(data, payload, decode)
		return stored
	default:
		o.verdict = ecc.ReadSECDED(data, payload, decode)
	}
	if o.verdict == ecc.Corrected && decode {
		_, bad := ps.Check(*data, stored)
		o.recheckOK = bad == 0
	}
	return stored
}
