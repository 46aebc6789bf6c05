package killi

// §5.5: "To run at such low voltages, both Killi's ECC cache and MS-ECC
// must use ECC based on Orthogonal Latin Square Codes (OLSC). … Killi's
// parity support remains unchanged."
//
// In OLSC mode the ECC cache entry stores an OLSC checkbit vector instead
// of SECDED(+DECTED) bits. Any line whose faults the code can correct
// (up to OLSCStrength, 11 in the Table 7 configuration) stays enabled in
// the Stable1 state; only lines beyond that are disabled. This is what
// lets Killi chase MS-ECC's Vmin with a fraction of the area (Table 7).

import (
	"killi/internal/bitvec"
	"killi/internal/ecc/olsc"
	"killi/internal/ecc/parity"
	"killi/internal/protection"
)

// olscFill generates OLSC-mode metadata for a fill into any enabled state.
func (k *Scheme) olscFill(set, way, id int, data bitvec.Line) {
	switch k.DFHOf(set, way) {
	case Initial:
		p16 := k.p16.Generate(data)
		k.parity4[id] = uint8(p16 & 0xf)
		entry := k.allocECC(set, way)
		entry.parity12 = uint16(p16 >> 4)
		entry.olscCheck = k.olsc.Encode(bitvec.VectorOf(data[:], bitvec.LineBits))
	case Stable0:
		k.parity4[id] = uint8(k.p4.Generate(data))
	case Stable1:
		k.parity4[id] = uint8(k.p4.Generate(data))
		entry := k.allocECC(set, way)
		entry.olscCheck = k.olsc.Encode(bitvec.VectorOf(data[:], bitvec.LineBits))
	default:
		panic("killi: fill into a disabled line")
	}
}

// olscReadInitial classifies an unknown line with segmented parity plus
// the OLSC decoder: fault-free lines release their entry, correctable
// lines stay enabled under OLSC, anything beyond is disabled.
func (k *Scheme) olscReadInitial(set, way int, data *bitvec.Line) protection.Verdict {
	id := k.h.Tags().LineID(set, way)
	entry, eSet, eWay, hit := k.ecc.lookup(set, id)
	if !hit {
		panic("killi: Initial line without an ECC cache entry")
	}
	k.ecc.touch(eSet, eWay)
	stored16 := uint64(k.parity4[id]) | uint64(entry.parity12)<<4

	d := *data
	res := k.olsc.Decode(bitvec.VectorOf(d[:], bitvec.LineBits), entry.olscCheck)
	switch res.Status {
	case olsc.OK:
		if _, segMis := k.p16.Check(*data, stored16); segMis != 0 {
			// Parity and OLSC disagree: distrust the line.
			k.setDFH(set, way, Disabled)
			k.ecc.invalidate(set, id)
			return protection.ErrorMiss
		}
		k.setDFH(set, way, Stable0)
		k.parity4[id] = uint8(parity.Fold(stored16))
		k.ecc.invalidate(set, id)
		return protection.Deliver
	case olsc.Corrected:
		*data = d
		if _, bad := k.p16.Check(*data, stored16); bad != 0 {
			k.h.Stats().IncC(cMiscorrection)
			k.setDFH(set, way, Disabled)
			k.ecc.invalidate(set, id)
			return protection.ErrorMiss
		}
		k.h.Stats().IncC(cCorrectedReads)
		k.setDFH(set, way, Stable1)
		k.parity4[id] = uint8(parity.Fold(stored16))
		return protection.Deliver
	default:
		k.setDFH(set, way, Disabled)
		k.ecc.invalidate(set, id)
		return protection.ErrorMiss
	}
}

// olscReadStable1 verifies an OLSC-protected line.
func (k *Scheme) olscReadStable1(set, way int, data *bitvec.Line) protection.Verdict {
	id := k.h.Tags().LineID(set, way)
	entry, eSet, eWay, hit := k.ecc.lookup(set, id)
	if !hit {
		panic("killi: Stable1 line without an ECC cache entry")
	}
	k.ecc.touch(eSet, eWay)
	d := *data
	res := k.olsc.Decode(bitvec.VectorOf(d[:], bitvec.LineBits), entry.olscCheck)
	switch res.Status {
	case olsc.OK:
		return protection.Deliver
	case olsc.Corrected:
		*data = d
		if _, bad := k.p4.Check(*data, uint64(k.parity4[id])); bad != 0 {
			k.h.Stats().IncC(cMiscorrection)
			k.setDFH(set, way, Disabled)
			k.ecc.invalidate(set, id)
			return protection.ErrorMiss
		}
		k.h.Stats().IncC(cCorrectedReads)
		return protection.Deliver
	default:
		k.setDFH(set, way, Disabled)
		k.ecc.invalidate(set, id)
		return protection.ErrorMiss
	}
}

// olscClassifyDeparting is eviction training in OLSC mode.
func (k *Scheme) olscClassifyDeparting(set, way, id int, entry *eccEntry) {
	data := k.h.Data().Read(id)
	stored16 := uint64(k.parity4[id]) | uint64(entry.parity12)<<4
	_, segMis := k.p16.Check(data, stored16)
	k.h.Stats().IncC(cEvictionTrainings)
	res := k.olsc.Decode(bitvec.VectorOf(data[:], bitvec.LineBits), entry.olscCheck)
	switch {
	case res.Status == olsc.OK && segMis == 0:
		k.setDFH(set, way, Stable0)
	case res.Status == olsc.Corrected:
		k.setDFH(set, way, Stable1)
	default:
		k.setDFH(set, way, Disabled)
	}
}
