package ecc_test

import (
	"fmt"

	"killi/internal/bitvec"
	"killi/internal/ecc"
)

// Example demonstrates the codec family on a cache line: SECDED corrects a
// single flipped bit; DECTED corrects two.
func Example() {
	var line bitvec.Line
	line[0] = 0xdeadbeefcafef00d

	secded := ecc.SECDED()
	check := secded.Encode(line)
	corrupted := line
	corrupted.FlipBit(17)
	out := secded.Decode(&corrupted, check)
	fmt.Printf("secded: %v, %d bit corrected, restored=%v\n",
		out.Status, out.DataBitsCorrected, corrupted == line)

	dected := ecc.DECTED()
	check = dected.Encode(line)
	corrupted = line
	corrupted.FlipBit(17)
	corrupted.FlipBit(401)
	out = dected.Decode(&corrupted, check)
	fmt.Printf("dected: %v, %d bits corrected, restored=%v\n",
		out.Status, out.DataBitsCorrected, corrupted == line)

	// Checkbit budgets per 64-byte line (paper §4.1 / §5.2):
	for _, c := range []ecc.Codec{secded, dected, ecc.OLSC(11)} {
		fmt.Printf("%s: %d checkbits, corrects %d\n", c.Name(), c.CheckBits(), c.CorrectsUpTo())
	}

	// Output:
	// secded: corrected, 1 bit corrected, restored=true
	// dected: corrected, 2 bits corrected, restored=true
	// secded: 11 checkbits, corrects 1
	// dected: 21 checkbits, corrects 2
	// olsc-11: 506 checkbits, corrects 11
}
