package killi_test

import (
	"fmt"

	"killi/internal/bitvec"
	"killi/internal/cache"
	"killi/internal/faultmodel"
	"killi/internal/killi"
	"killi/internal/obs"
	"killi/internal/protection"
	"killi/internal/sram"
	"killi/internal/stats"
)

// exampleHost is a minimal protection.Host for the examples.
type exampleHost struct {
	tags *cache.Cache
	data *sram.Array
	ctr  stats.Counters
}

func (h *exampleHost) Tags() *cache.Cache            { return h.tags }
func (h *exampleHost) Data() *sram.Array             { return h.data }
func (h *exampleHost) Stats() *stats.Counters        { return &h.ctr }
func (h *exampleHost) SchemeInvalidate(set, way int) { h.tags.Invalidate(set, way) }
func (h *exampleHost) Now() uint64                   { return 0 }
func (h *exampleHost) Observer() obs.Observer        { return nil }

// Example walks one cache line through Killi's runtime classification: a
// line with a single stuck-at fault is corrected on its first hit and
// settles in DFH state b'10.
func Example() {
	// One line with one persistent stuck-at-1 fault at bit 100.
	faults := [][]faultmodel.Fault{{{Bit: 100, StuckAt: 1}}}
	fm := faultmodel.NewMapExplicit(faultmodel.Default(), bitvec.LineBits, 1.0, faults)
	h := &exampleHost{
		tags: cache.New(cache.Config{Sets: 1, Ways: 1, LineBytes: 64}),
		data: sram.New(1, fm, 0.625),
	}

	k := killi.New(killi.Config{Ratio: 1})
	k.Attach(h)
	k.Reset(0.625) // no MBIST: every line starts in b'01

	// The controller fills data whose bit 100 is 0, so the fault is
	// unmasked.
	var data bitvec.Line
	h.tags.Install(0, 0, 42)
	h.data.Write(0, data)
	k.OnFill(0, 0, data)
	// The DFH bits live in the line's tag entry.
	fmt.Println("after fill:", killi.DFH(h.tags.Entry(0, 0).Class))

	// First load hit: parity + SECDED classify and correct on the fly.
	got := h.data.Read(0)
	verdict := k.OnReadHit(0, 0, &got)
	fmt.Println("verdict:", verdict, "- data clean:", got == data)
	fmt.Println("after hit:", killi.DFH(h.tags.Entry(0, 0).Class))

	// Output:
	// after fill: b'01
	// verdict: deliver - data clean: true
	// after hit: b'10
}

// ExampleScheme_Reset shows the no-MBIST voltage transition: a reset
// returns even disabled lines to the unknown state for relearning.
func ExampleScheme_Reset() {
	faults := [][]faultmodel.Fault{{{Bit: 0, StuckAt: 1}, {Bit: 1, StuckAt: 1}}}
	fm := faultmodel.NewMapExplicit(faultmodel.Default(), bitvec.LineBits, 1.0, faults)
	h := &exampleHost{
		tags: cache.New(cache.Config{Sets: 1, Ways: 1, LineBytes: 64}),
		data: sram.New(1, fm, 0.625),
	}
	k := killi.New(killi.Config{Ratio: 1})
	k.Attach(h)
	k.Reset(0.625)

	var data bitvec.Line
	h.tags.Install(0, 0, 7)
	h.data.Write(0, data)
	k.OnFill(0, 0, data)
	got := h.data.Read(0)
	_ = k.OnReadHit(0, 0, &got) // two faults: the line is disabled
	fmt.Println("at 0.625xVDD:", killi.DFH(h.tags.Entry(0, 0).Class))

	// A voltage change is just a DFH reset — no MBIST pass anywhere.
	k.Reset(1.0)
	fmt.Println("after transition:", killi.DFH(h.tags.Entry(0, 0).Class))

	// Output:
	// at 0.625xVDD: b'11
	// after transition: b'01
}

var _ protection.Scheme = (*killi.Scheme)(nil)
