package ecc_test

import (
	"fmt"

	"killi/internal/bitvec"
	"killi/internal/ecc"
	"killi/internal/ecc/olsc"
)

// Example reads one written line back through each code: SECDED corrects
// a single flipped bit, DECTED two, and MS-ECC's OLSC(11) eleven; a line
// the code cannot correct is left as read.
func Example() {
	var payload bitvec.Line
	payload[0] = 0xdeadbeefcafef00d

	read := payload
	read.FlipBit(17)
	fmt.Println("secded, 1 flip:", ecc.ReadSECDED(&read, payload, true) == ecc.Corrected, read == payload)

	read = payload
	read.FlipBit(17)
	read.FlipBit(401)
	fmt.Println("secded, 2 flips:", ecc.ReadSECDED(&read, payload, true) == ecc.EvenDetected, read == payload)
	fmt.Println("dected, 2 flips:", ecc.ReadDECTED(&read, payload, true) == ecc.Corrected, read == payload)

	read = payload
	for b := 0; b < 11; b++ {
		read.FlipBit(40 * b)
	}
	fmt.Println("olsc-11, 11 flips:", ecc.ReadOLSC(olsc.NewLine(11), &read, payload, true) == ecc.Corrected, read == payload)

	// Output:
	// secded, 1 flip: true true
	// secded, 2 flips: true false
	// dected, 2 flips: true true
	// olsc-11, 11 flips: true true
}
