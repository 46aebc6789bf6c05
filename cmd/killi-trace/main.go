// killi-trace replays an external memory trace (see internal/tracefile for
// the format) through the simulated GPU under any protection scheme —
// the adoption path for users with real application traces instead of the
// built-in synthetic workloads.
//
//	killi-trace -file app.trace -scheme killi-1:64 -voltage 0.625
//
// With -dump <workload>, the tool instead writes one of the built-in
// synthetic workloads in trace format (a starting point for editing):
//
//	killi-trace -dump xsbench -requests 1000 > xsbench.trace
package main

import (
	"flag"
	"fmt"
	"os"

	"killi/internal/experiments"
	"killi/internal/faultmodel"
	"killi/internal/gpu"
	"killi/internal/tracefile"
	"killi/internal/workload"
)

func main() {
	file := flag.String("file", "", "trace file to replay (required unless -dump)")
	schemeName := flag.String("scheme", "killi-1:64", "protection scheme: "+experiments.SchemeSyntax())
	voltage := flag.Float64("voltage", 0.625, "L2 operating voltage (x VDD)")
	seed := flag.Uint64("seed", 1, "fault population seed")
	dump := flag.String("dump", "", "write the named synthetic workload as a trace to stdout and exit")
	requests := flag.Int("requests", 1000, "requests per CU for -dump")
	flag.Parse()

	if *dump != "" {
		w, err := workload.ByName(*dump)
		if err != nil {
			fatal(err)
		}
		if err := tracefile.Write(os.Stdout, w.Traces(gpu.DefaultConfig().CUs, *requests, *seed)); err != nil {
			fatal(err)
		}
		return
	}
	if *file == "" {
		fatal(fmt.Errorf("-file is required (or use -dump)"))
	}
	if err := faultmodel.CheckVoltage(*voltage); err != nil {
		fatal(err)
	}

	f, err := os.Open(*file)
	if err != nil {
		fatal(err)
	}
	defer f.Close()

	cfg := gpu.DefaultConfig()
	cfg.Voltage = *voltage
	cfg.FaultSeed = *seed
	traces, err := tracefile.Parse(f, cfg.CUs)
	if err != nil {
		fatal(err)
	}
	newScheme, err := experiments.SchemeFactoryByName(*schemeName)
	if err != nil {
		fatal(err)
	}
	res := gpu.New(cfg, newScheme).Run(traces)

	fmt.Printf("scheme:        %s @ %.3fxVDD\n", newScheme().Name(), *voltage)
	fmt.Printf("cycles:        %d\n", res.Cycles)
	fmt.Printf("instructions:  %d\n", res.Instructions)
	fmt.Printf("L2 accesses:   %d (misses %d, MPKI %.2f)\n", res.L2Accesses, res.L2Misses, res.MPKI())
	fmt.Printf("DRAM reads:    %d\n", res.MemAccesses)
	fmt.Printf("disabled lines:%d\n", res.DisabledLines)
	fmt.Println()
	fmt.Println(res.Counters.String())
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "killi-trace: %v\n", err)
	os.Exit(1)
}
