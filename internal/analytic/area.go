package analytic

import (
	"fmt"
	"math"
)

// Storage-area accounting for a 2 MB, 16-way, 64 B-line L2 (Tables 4, 5
// and 7). All figures are in bits unless noted; ratios are normalized to
// the conventional SECDED-per-line design, exactly as the paper reports
// them.

// L2Geometry describes the cache being protected.
type L2Geometry struct {
	Lines    int // number of cache lines
	LineBits int // data bits per line (512)
	Sets     int
	Ways     int
}

// PaperL2 returns the paper's 2 MB / 16-way / 64 B configuration.
func PaperL2() L2Geometry {
	return L2Geometry{Lines: 32768, LineBits: 512, Sets: 2048, Ways: 16}
}

// Per-line protection constants.
const (
	secdedCheckBits = 11 // SECDED over a 64 B line
	dectedCheckBits = 21
	tecqedCheckBits = 31
	sixEC7EDBits    = 61
	olscMSECCBits   = 506 // OLSC t=11 over 512 bits (Table 7 comparisons)
	disableBit      = 1   // per-line disable flag of MBIST schemes

	// killiPerLineBits: 4 cache-resident parity bits + 2 DFH bits.
	killiPerLineBits = 6

	// eccEntryOverheadBits: the non-checkbit portion of an ECC cache
	// entry — index+way tag (11+4 for the paper's L2), valid, and 2 LRU
	// bits. Together with the 11 SECDED + 12 parity payload this gives
	// the paper's 41-bit ECC cache line (Table 3).
	eccEntryOverheadBits = 18

	// killiTrainingPayloadBits: 11 SECDED checkbits + 12 overflow parity
	// bits needed while a line is in DFH b'01. A stable-state code
	// needing at most these 23 bits (SECDED, DECTED=21) reuses them; a
	// stronger code extends the entry.
	killiTrainingPayloadBits = secdedCheckBits + 12

	// msECCAreaBitsPerLine is MS-ECC's per-line area as published in
	// Table 5 (38.6 % of a 512-bit line ⇒ ~198 bits). The paper's MS-ECC
	// configuration stores part of its OLSC checkbits in reclaimed ways,
	// so its *extra area* is below the raw 506-bit OLSC cost; we adopt
	// the published figure for Table 5 reproduction.
	msECCAreaBitsPerLine = 198
)

// secdedPerLineBits returns the total extra bits of the conventional
// SECDED-per-line LV design (checkbits + disable bit per line) — the
// normalization denominator of Tables 4 and 5.
func secdedPerLineBits(g L2Geometry) int {
	return g.Lines * (secdedCheckBits + disableBit)
}

// dectedPerLineBits returns DECTED-per-line extra bits.
func dectedPerLineBits(g L2Geometry) int {
	return g.Lines * (dectedCheckBits + disableBit)
}

// mseccBits returns MS-ECC's extra bits per Table 5's published density.
func mseccBits(g L2Geometry) int {
	return g.Lines * msECCAreaBitsPerLine
}

// KilliECCEntryBits returns the size of one ECC cache entry when the
// stable-state code needs codeCheckBits: the training payload (23 bits) is
// reused when the code fits within it (§5.2's DECTED trick), otherwise the
// entry holds the code alongside the 12 training parity bits.
func KilliECCEntryBits(codeCheckBits int) int {
	payload := killiTrainingPayloadBits
	if codeCheckBits > payload {
		payload = codeCheckBits + 12
	}
	return payload + eccEntryOverheadBits
}

// killiBits returns Killi's total extra bits for an ECC cache with one
// entry per ratio L2 lines, using a stable-state code of codeCheckBits
// (11 = SECDED, 21 = DECTED, …).
func killiBits(g L2Geometry, ratio, codeCheckBits int) int {
	entries := g.Lines / ratio
	return g.Lines*killiPerLineBits + entries*KilliECCEntryBits(codeCheckBits)
}

// killiRatio returns Killi's storage normalized to SECDED-per-line — the
// cells of Tables 4 and 5.
func killiRatio(g L2Geometry, ratio, codeCheckBits int) float64 {
	return float64(killiBits(g, ratio, codeCheckBits)) / float64(secdedPerLineBits(g))
}

// percentOverL2 expresses extra bits as a percentage of the L2 data
// capacity (Table 5's last row).
func percentOverL2(g L2Geometry, extraBits int) float64 {
	return float64(extraBits) / float64(g.Lines*g.LineBits) * 100
}

// Table4Row is one row of Table 4: a stable-state code across the five
// ECC cache ratios.
type Table4Row struct {
	Code   string
	Ratios map[int]float64 // ECC-cache ratio → area normalized to SECDED
}

// Table4 reproduces the paper's Table 4 (Killi with DECTED, TECQED and
// 6EC7ED codes, normalized to SECDED-per-line).
func Table4(g L2Geometry) []Table4Row {
	codes := []struct {
		name string
		bits int
	}{
		{"DECTED", dectedCheckBits},
		{"TECQED", tecqedCheckBits},
		{"6EC7ED", sixEC7EDBits},
	}
	out := make([]Table4Row, 0, len(codes))
	for _, c := range codes {
		row := Table4Row{Code: c.name, Ratios: map[int]float64{}}
		for _, r := range []int{256, 128, 64, 32, 16} {
			row.Ratios[r] = killiRatio(g, r, c.bits)
		}
		out = append(out, row)
	}
	return out
}

// Table5Entry is one column of Table 5.
type Table5Entry struct {
	Scheme    string
	Bits      int
	Ratio     float64 // normalized to SECDED-per-line
	PctOverL2 float64
}

// Table5 reproduces the area comparison of Table 5 for the paper's L2.
func Table5(g L2Geometry) []Table5Entry {
	secded := secdedPerLineBits(g)
	entries := []Table5Entry{
		{Scheme: "DECTED", Bits: dectedPerLineBits(g)},
		{Scheme: "MS-ECC", Bits: mseccBits(g)},
		{Scheme: "SECDED", Bits: secded},
	}
	for _, r := range []int{256, 128, 64, 32, 16} {
		entries = append(entries, Table5Entry{
			Scheme: fmt.Sprintf("Killi 1:%d", r),
			Bits:   killiBits(g, r, secdedCheckBits),
		})
	}
	for i := range entries {
		entries[i].Ratio = float64(entries[i].Bits) / float64(secded)
		entries[i].PctOverL2 = percentOverL2(g, entries[i].Bits)
	}
	return entries
}

// KilliBytesForRatio returns Killi's total overhead in kilobytes — the
// paper quotes 24.6 KB (1:256) to 34.25 KB (1:16) for the 2 MB L2.
func KilliBytesForRatio(g L2Geometry, ratio int) float64 {
	return float64(killiBits(g, ratio, secdedCheckBits)) / 8 / 1024
}

// Table7Row is one row of Table 7: Killi-with-OLSC area normalized to
// MS-ECC-with-OLSC at a target voltage.
type Table7Row struct {
	Voltage        float64
	CapacityTarget float64 // % of L2 lines usable with OLSC t=11
	ECCRatio       int     // ECC cache sizing achieving that capacity
	KilliOverMSECC float64 // Killi area / MS-ECC area
}

// Table7 reproduces Table 7: at 0.6×VDD Killi protects one in eight lines,
// at 0.575×VDD one in two, against MS-ECC provisioning OLSC for every
// line. pcell maps voltage to the per-cell failure probability.
func Table7(g L2Geometry, pcell func(v float64) float64) []Table7Row {
	msecc := g.Lines * olscMSECCBits
	rows := []Table7Row{
		{Voltage: 0.600, ECCRatio: 8},
		{Voltage: 0.575, ECCRatio: 2},
	}
	for i := range rows {
		p := pcell(rows[i].Voltage)
		// Usable capacity: lines with ≤11 faults over data+checkbits.
		rows[i].CapacityTarget = binomCDF(g.LineBits+olscMSECCBits, 11, p) * 100
		killiBits := g.Lines*killiPerLineBits +
			(g.Lines/rows[i].ECCRatio)*KilliECCEntryBits(olscMSECCBits)
		rows[i].KilliOverMSECC = float64(killiBits) / float64(msecc)
	}
	return rows
}

// roundTo is a small helper for table rendering.
func roundTo(x float64, digits int) float64 {
	m := math.Pow(10, float64(digits))
	return math.Round(x*m) / m
}
