// Package olsc implements Orthogonal Latin Square Codes: one-step
// majority-logic decodable codes that correct t errors using 2t·m checkbits
// over m² data bits.
//
// MS-ECC (Chishti et al., MICRO'09), one of the Killi paper's comparison
// points, protects ultra-low-voltage cache lines with OLSC because its
// majority-logic decoder is fast and its strength scales linearly with
// storage: for a 64-byte line, t=11 needs 2·11·23 = 506 checkbits — about
// half the line size, which is exactly MS-ECC's "sacrifice 50 % of cache
// capacity" design point. Killi §5.5 reuses the same code inside the ECC
// cache to chase lower Vmin.
//
// Construction: data bits occupy an m×m grid (m prime), data bit i·m+j at
// row i, column j. Parity-check family 0 sums rows, family 1 sums columns,
// and family f ≥ 2 sums the cells on which the Latin square
// L_{f-1}(i,j) = (f-1)·i + j (mod m) is constant. For prime m these squares
// are mutually orthogonal, so any two groups from different families share
// exactly one cell; each data bit is checked by 2t groups that are
// otherwise disjoint, enabling one-step majority decoding: a bit is flipped
// iff more than t of its 2t checks fail.
//
// The codec computes whole families at once from the grid's m-bit rows.
// Family 0 is each row's parity. Family f ≥ 1 is the XOR over rows i of row
// i rotated left (towards higher columns) by (f-1)·i mod m: the rotation
// carries cell (i,j) to column (f-1)·i + j, its group in that family. The
// decoder runs the same rotations backwards to count each row's failing
// checks bit-parallel. One row or family fits a 64-bit word, so the grid
// is bounded at m < 64.
package olsc

import (
	"fmt"
	"math/bits"
	"sync"

	"killi/internal/bitvec"
)

// Status classifies a decode outcome.
type Status int

const (
	// OK: no error detected.
	OK Status = iota
	// Corrected: all errors were corrected by majority logic.
	Corrected
	// DetectedUncorrectable: errors remain after the correction pass.
	DetectedUncorrectable
)

// String returns a short human-readable status name.
func (s Status) String() string {
	switch s {
	case OK:
		return "ok"
	case Corrected:
		return "corrected"
	case DetectedUncorrectable:
		return "detected-uncorrectable"
	default:
		return fmt.Sprintf("olsc.Status(%d)", int(s))
	}
}

// Result reports a decode outcome.
type Result struct {
	Status Status
	// DataBitsCorrected counts the data bits Decode flipped in place.
	DataBitsCorrected int
	// CheckGroupErrors counts residual parity-group mismatches attributed
	// to checkbit errors.
	CheckGroupErrors int
}

// maxGrid bounds the grid dimension: New requires m < maxGrid, since a
// grid row and a family's group parities each live in one 64-bit word.
const maxGrid = 64

// families holds one m-bit word per parity-check family: bit g of
// families[f] belongs to group g of family f. 2t ≤ m+1 ≤ maxGrid.
type families [maxGrid]uint64

// Code is an OLS code over k data bits correcting up to t errors. A Code is
// immutable after New, so one instance may serve concurrent encoders and
// decoders. The zero value is unusable; construct with New.
type Code struct {
	k, t, m int
	rows    int    // grid rows holding data: ceil(k/m)
	mask    uint64 // the low m bits: one full row or family
}

// New returns an OLS code for k data bits correcting t errors. The grid
// size m is gridSize(k, t). It panics on non-positive parameters and on a
// grid of 64 or more (m ≤ 61, so t ≤ 31 and k ≤ 3721).
func New(k, t int) *Code {
	if k <= 0 || t <= 0 {
		panic("olsc: k and t must be positive")
	}
	// m ≥ 2t-1 and m² ≥ k: rule out the wide grids before sizing one.
	if 2*t > maxGrid || k >= maxGrid*maxGrid || gridSize(k, t) >= maxGrid {
		panic(fmt.Sprintf("olsc: k=%d t=%d needs a grid of %d or more, beyond the row kernel", k, t, maxGrid))
	}
	m := gridSize(k, t)
	return &Code{k: k, t: t, m: m, rows: (k + m - 1) / m, mask: 1<<uint(m) - 1}
}

// lineCodes[t] builds the 512-bit line code of strength t once per
// process; every strength a line grid below maxGrid allows has a slot.
var lineCodes = func() (codes [maxGrid / 2]func() *Code) {
	for t := 1; t < len(codes); t++ {
		codes[t] = sync.OnceValue(func() *Code { return New(bitvec.LineBits, t) })
	}
	return codes
}()

// NewLine returns the cache-line instantiation over 512 data bits.
// NewLine(11) is the MS-ECC configuration (506 checkbits). Each strength
// is built once per process and shared: a Code is immutable.
func NewLine(t int) *Code {
	if t < 1 || t >= len(lineCodes) {
		return New(bitvec.LineBits, t) // panics: no line grid fits
	}
	return lineCodes[t]()
}

// CheckLine reports whether a line code of strength t exists here: t must
// be positive and its 2·t·m checkbits must fit one line's worth of words
// (bitvec.LineBits), the buffer a line's checkbits are derived into. That
// bounds t at 11, MS-ECC's strength. Every OLSC strength a scheme name
// asks for is checked here.
func CheckLine(t int) error {
	if t < 1 {
		return fmt.Errorf("olsc: strength must be positive, got %d", t)
	}
	if t > bitvec.LineBits/4 {
		// Every grid is at least 2×2, so 2·t·m ≥ 4t: too wide to size.
		return fmt.Errorf("olsc: olsc-%d needs more than the %d checkbits a line holds", t, bitvec.LineBits)
	}
	if n := 2 * t * gridSize(bitvec.LineBits, t); n > bitvec.LineBits {
		return fmt.Errorf("olsc: olsc-%d needs %d checkbits, more than the %d a line holds", t, n, bitvec.LineBits)
	}
	return nil
}

// gridSize returns the grid dimension New(k, t) uses: the smallest prime m
// with m*m >= k and m+1 >= 2t. The code stores 2·t·m checkbits.
func gridSize(k, t int) int {
	m := 2
	for m*m < k || m+1 < 2*t {
		m++
	}
	for !isPrime(m) {
		m++
	}
	return m
}

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// T returns the correction strength.
func (c *Code) T() int { return c.t }

// CheckBits returns the number of checkbits: 2·t·m.
func (c *Code) CheckBits() int { return 2 * c.t * c.m }

// Encode returns the checkbit vector: bit f·m+g is the even parity of
// group g in family f.
func (c *Code) Encode(data *bitvec.Vector) *bitvec.Vector {
	check := bitvec.NewVector(c.CheckBits())
	c.EncodeTo(check, data)
	return check
}

// EncodeTo writes data's checkbits into check, a CheckBits()-wide vector,
// as Encode would return them — without allocating, so a caller can keep
// checkbits in storage of its own.
func (c *Code) EncodeTo(check, data *bitvec.Vector) {
	if data.Len() != c.k {
		panic(fmt.Sprintf("olsc: Encode data width %d, want %d", data.Len(), c.k))
	}
	if check.Len() != c.CheckBits() {
		panic(fmt.Sprintf("olsc: Encode check width %d, want %d", check.Len(), c.CheckBits()))
	}
	var p families
	c.parities(&p, data)
	for f := 0; f < 2*c.t; f++ {
		check.SetBits(f*c.m, c.m, p[f])
	}
}

// parities sets p[f], for every family f < 2t, to that family's group
// parities over data; data bits at k and beyond are ignored.
func (c *Code) parities(p *families, data *bitvec.Vector) {
	m, mask := c.m, c.mask
	var buf [maxGrid]uint64
	rows := buf[:c.rows]
	words := data.Words()
	var p0 uint64
	for i := range rows {
		off := i * m
		w, sh := off>>6, uint(off&63)
		r := words[w] >> sh
		if sh+uint(m) > 64 && w+1 < len(words) {
			r |= words[w+1] << (64 - sh)
		}
		r &= 1<<uint(c.rowWidth(i)) - 1
		rows[i] = r
		p0 |= uint64(bits.OnesCount64(r)&1) << uint(i)
	}
	p[0] = p0
	for f := 1; f < 2*c.t; f++ {
		// The rotation (f-1)·i mod m, stepped row by row; f-1 < m. The
		// bits a rotation pushes past m are cut once, after the XOR.
		var acc uint64
		rot := 0
		for _, r := range rows {
			acc ^= r<<uint(rot&63) | r>>uint((m-rot)&63)
			if rot += f - 1; rot >= m {
				rot -= m
			}
		}
		p[f] = acc & mask
	}
}

// rowWidth returns how many data bits grid row i holds: m, or fewer in
// the last row when k < m².
func (c *Code) rowWidth(i int) int { return min(c.m, c.k-i*c.m) }

// Decode corrects data in place by one-step majority logic, then verifies.
// Up to t data-bit errors are always corrected; residual parity mismatches
// that cannot be attributed to checkbit errors within the t budget are
// reported as DetectedUncorrectable.
func (c *Code) Decode(data *bitvec.Vector, check *bitvec.Vector) Result {
	if data.Len() != c.k {
		panic(fmt.Sprintf("olsc: Decode data width %d, want %d", data.Len(), c.k))
	}
	if check.Len() != c.CheckBits() {
		panic(fmt.Sprintf("olsc: Decode check width %d, want %d", check.Len(), c.CheckBits()))
	}
	var failed families
	n := c.failedGroups(&failed, data, check)
	if n == 0 {
		return Result{Status: OK}
	}
	// Majority vote per data bit: flip iff more than t of its 2t checks
	// fail — impossible while no more than t checks fail in all.
	res := Result{}
	if n > c.t {
		res.DataBitsCorrected = c.vote(&failed, data)
	}
	// Verify: recompute. Remaining single-group mismatches are checkbit
	// errors; they are tolerable while the total error count stays ≤ t.
	remaining := n
	if res.DataBitsCorrected > 0 {
		remaining = c.failedGroups(&failed, data, check)
	}
	res.CheckGroupErrors = remaining
	if remaining == 0 {
		res.Status = Corrected
		return res
	}
	if res.DataBitsCorrected+remaining <= c.t {
		res.Status = Corrected
		return res
	}
	res.Status = DetectedUncorrectable
	return res
}

// failedGroups sets failed to the groups whose parity over data disagrees
// with the stored checkbits, family by family, and returns their count.
func (c *Code) failedGroups(failed *families, data *bitvec.Vector, check *bitvec.Vector) int {
	c.parities(failed, data)
	n := 0
	for f := 0; f < 2*c.t; f++ {
		failed[f] ^= check.Bits(f*c.m, c.m)
		n += bits.OnesCount64(failed[f])
	}
	return n
}

// vote flips every data bit more than t of whose 2t checks fail and
// returns how many it flipped. Row by row, it rotates each family's failed
// groups back onto the row's columns and counts them in bit-sliced
// counters: planes[b] holds bit b of every column's count.
func (c *Code) vote(failed *families, data *bitvec.Vector) int {
	// Only families with a failing group add votes.
	var live, rot [maxGrid]int
	nl := 0
	for f := 1; f < 2*c.t; f++ {
		if failed[f] != 0 {
			live[nl] = f
			nl++
		}
	}
	flipped := 0
	for i := range c.rows {
		// Counts reach at most 2t < maxGrid: six planes.
		var planes [6]uint64
		planes[0] = -(failed[0] >> uint(i) & 1) & c.mask
		for l, f := range live[:nl] {
			x := failed[f]
			x = (x>>uint(rot[l]&63) | x<<uint((c.m-rot[l])&63)) & c.mask
			for b := 0; x != 0; b++ {
				planes[b], x = planes[b]^x, planes[b]&x
			}
			if rot[l] += f - 1; rot[l] >= c.m {
				rot[l] -= c.m
			}
		}
		// Columns whose count exceeds t, compared from the top plane down.
		var over uint64
		eq := c.mask
		for b := len(planes) - 1; b >= 0; b-- {
			if c.t>>uint(b)&1 == 1 {
				eq &= planes[b]
			} else {
				over |= eq & planes[b]
				eq &^= planes[b]
			}
		}
		over &= 1<<uint(c.rowWidth(i)) - 1
		for ; over != 0; over &= over - 1 {
			data.FlipBit(i*c.m + bits.TrailingZeros64(over))
			flipped++
		}
	}
	return flipped
}
