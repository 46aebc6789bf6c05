// Write-back demo (§5.6.1): Killi on a write-back cache selects dirty-line
// protection by DFH — SECDED for fault-free lines, DECTED (in the same
// ECC cache entry) for one-fault lines — and surfaces unrecoverable dirty
// data as explicit data-loss errors instead of silent corruption.
//
//	go run ./examples/writeback
package main

import (
	"fmt"
	"io"
	"os"
	"slices"

	"killi/internal/bitvec"
	"killi/internal/faultmodel"
	"killi/internal/killi"
	"killi/internal/xrand"
)

func main() {
	run(os.Stdout)
}

// run drives the demo and prints its report to out. Everything it does is a
// pure function of the fixed seeds, so the report is identical every run.
func run(out io.Writer) {
	const sets, ways = 256, 4
	fm := faultmodel.NewMap(xrand.New(11), faultmodel.Default(),
		sets*ways, bitvec.LineBits, 0.575, 1.0)
	c := killi.NewWriteBack(killi.WriteBackConfig{
		Sets: sets, Ways: ways, Ratio: 16,
	}, fm, 0.575)

	r := xrand.New(12)
	written := map[uint64]bitvec.Line{}

	// Phase 1: write a working set larger than the cache (forces dirty
	// evictions + write-backs through faulty lines).
	for i := 0; i < 4096; i++ {
		addr := uint64(r.Intn(2048)) * 64
		var l bitvec.Line
		for w := range l {
			l[w] = r.Uint64()
		}
		if err := c.Write(addr, l); err != nil {
			fmt.Fprintf(out, "write %#x: %v\n", addr, err)
			continue
		}
		written[addr] = l
	}

	// Phase 2: read everything back and verify, in address order: reads
	// train and evict lines, so the order decides the counters below.
	addrs := make([]uint64, 0, len(written))
	for addr := range written {
		addrs = append(addrs, addr)
	}
	slices.Sort(addrs)
	verified, lost := 0, 0
	for _, addr := range addrs {
		want := written[addr]
		got, err := c.Read(addr)
		if err != nil {
			lost++
			continue
		}
		if got != want {
			fmt.Fprintf(out, "SILENT CORRUPTION at %#x\n", addr)
			continue
		}
		verified++
	}
	if err := c.Flush(); err != nil {
		fmt.Fprintf(out, "flush reported: %v\n", err)
	}

	fmt.Fprintf(out, "lines verified:  %d\n", verified)
	fmt.Fprintf(out, "data-loss reads: %d (surfaced as errors, never silent)\n", lost)
	fmt.Fprintln(out)
	fmt.Fprintln(out, "Write-back Killi activity at 0.575xVDD:")
	for _, name := range []string{
		"wb.writes", "wb.read_hits", "wb.read_misses", "wb.writebacks",
		"wb.corrected_reads", "wb.lines_disabled", "wb.data_loss",
		"wb.ecc_contention_evictions",
	} {
		fmt.Fprintf(out, "  %-30s %d\n", name, c.Stats().Get(name))
	}
}
