package protection

import (
	"killi/internal/bitvec"
	"killi/internal/cache"
	"killi/internal/ecc"
)

// FLAIR models Qureshi & Chishti's FLAIR (DSN'13): SECDED per line plus
// Dual Modular Redundancy, with an *online* MBIST pass that tests the cache
// a few ways at a time while the remaining ways run under DMR.
//
// Two operating modes:
//
//   - Pre-trained (the paper's Figure 4/5 setup: "we skip training for the
//     simulations with FLAIR and pre-train their DFH bits"): behaves as
//     SECDED-per-line with ≥2-fault lines disabled from the first cycle.
//
//   - Online training (TrainAccesses > 0): while training, two ways of
//     each set are under MBIST test and the remaining 14 run in DMR pairs,
//     so only 7 of 16 ways hold distinct lines — the paper's "cache
//     capacity is effectively 7/16 of the original". After TrainAccesses
//     cache accesses the MBIST results land: full associativity returns
//     and ≥2-fault lines are disabled. This reproduces FLAIR's
//     training-phase capacity/bandwidth loss that Killi avoids.
type FLAIR struct {
	// TrainAccesses is the number of cache accesses the online MBIST pass
	// needs. Zero means pre-trained.
	TrainAccesses uint64

	h        Host
	accesses uint64
	training bool
}

// NewFLAIR returns a pre-trained FLAIR instance.
func NewFLAIR() *FLAIR { return &FLAIR{} }

// Name implements Scheme.
func (f *FLAIR) Name() string { return "flair" }

// Attach implements Scheme.
func (f *FLAIR) Attach(h Host) { f.h = h }

// Reset implements Scheme.
func (f *FLAIR) Reset(vNorm float64) {
	f.accesses = 0
	if f.TrainAccesses == 0 {
		f.training = false
		f.applyMBIST()
		return
	}
	f.training = true
	tags := f.h.Tags()
	ways := tags.Config().Ways
	usable := ways/2 - 1 // DMR halves capacity; two more ways are under test
	if usable < 1 {
		usable = 1
	}
	tags.ForEach(func(set, way int, e *cache.Entry) {
		e.Valid = false
		e.Disabled = way >= usable
	})
}

// applyMBIST installs the MBIST verdicts: disable every line with more
// faults than SECDED corrects, enable the rest.
func (f *FLAIR) applyMBIST() {
	tags := f.h.Tags()
	data := f.h.Data()
	tags.ForEach(func(set, way int, e *cache.Entry) {
		id := tags.LineID(set, way)
		wasDisabled := e.Disabled
		e.Disabled = data.ActiveFaultCount(id) > 1
		if e.Disabled {
			f.h.Stats().IncC(cLinesDisabled)
			e.Valid = false
		} else if wasDisabled {
			// Ways freed from MBIST testing return empty.
			e.Valid = false
		}
	})
}

// tick advances the training access counter and completes training when
// the MBIST budget is spent.
func (f *FLAIR) tick() {
	if !f.training {
		return
	}
	f.accesses++
	if f.accesses >= f.TrainAccesses {
		f.training = false
		f.applyMBIST()
		f.h.Stats().IncC(cTrainingCompleted)
	}
}

// VictimFunc implements Scheme.
func (f *FLAIR) VictimFunc() cache.VictimFunc { return nil }

// OnFill implements Scheme. As in PerLine, checkbits are encoded on
// demand from the data array, so a fill only advances training.
func (f *FLAIR) OnFill(set, way int, data bitvec.Line) { f.tick() }

// OnReadHit implements Scheme. As in PerLine, only a read-back that
// mismatches the payload the controller wrote is decoded.
func (f *FLAIR) OnReadHit(set, way int, data *bitvec.Line) Verdict {
	f.tick()
	truth := f.h.Data().ReadTrue(f.h.Tags().LineID(set, way))
	if *data == truth {
		// Zero syndrome by construction: decoding would report NoError.
		return Deliver
	}
	switch ecc.ReadSECDED(data, truth, true) {
	case ecc.NoError:
		return Deliver
	case ecc.Corrected, ecc.GlobalFlip:
		f.h.Stats().IncC(cCorrectedReads)
		return Deliver
	default:
		f.h.Stats().IncC(cErrorInducedMiss)
		tags := f.h.Tags()
		if !f.training {
			// Steady state: a detected-uncorrectable pattern means the
			// MBIST characterization missed this line (e.g. a masked fault
			// unmasked, or a soft error on a 1-fault line, §2.3); disable
			// it defensively.
			tags.Entry(set, way).Disabled = true
			f.h.Stats().IncC(cLinesDisabled)
		}
		tags.Invalidate(set, way)
		return ErrorMiss
	}
}

// OnWriteHit implements Scheme; see OnFill.
func (f *FLAIR) OnWriteHit(set, way int, data bitvec.Line) {}

// OnEvict implements Scheme.
func (f *FLAIR) OnEvict(set, way int) {}
