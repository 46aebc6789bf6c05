// DVFS demo: the paper's deployment argument, measured. A GPU alternates
// between nominal-voltage bursts and low-voltage phases; every transition
// forces pre-characterized schemes (here SECDED-per-line) to re-run MBIST
// over the whole 2 MB L2, while Killi just resets its DFH bits and keeps
// executing.
//
//	go run ./examples/dvfs
package main

import (
	"fmt"

	"killi/internal/dvfs"
	"killi/internal/gpu"
	"killi/internal/killi"
	"killi/internal/protection"
	"killi/internal/workload"
)

func main() {
	w, err := workload.ByName("lulesh")
	if err != nil {
		panic(err)
	}
	cfg := gpu.DefaultConfig()
	cfg.RefVoltage = 0.6 // the schedule's lowest point

	// A bursty schedule: race at nominal, then save power, eight times.
	var phases []dvfs.Phase
	for i := 0; i < 8; i++ {
		phases = append(phases,
			dvfs.Phase{Voltage: 1.0, Kernel: w.Traces(cfg.CUs, 1500, uint64(i))},
			dvfs.Phase{Voltage: 0.625, Kernel: w.Traces(cfg.CUs, 1500, uint64(i)+100)},
		)
	}
	mbist := dvfs.DefaultMBIST()
	fmt.Printf("MBIST pass over the 2 MB L2: %d cycles (March C-, 16 banks)\n\n",
		mbist.StallCycles(cfg.L2Bytes/cfg.LineBytes))

	for _, tc := range []struct {
		name      string
		newScheme protection.Factory
	}{
		{"secded-per-line (MBIST at every transition)",
			func() protection.Scheme { return protection.NewSECDEDPerLine() }},
		{"killi 1:64      (no MBIST, runtime DFH relearn)",
			func() protection.Scheme { return killi.New(killi.Config{Ratio: 64}) }},
	} {
		sys := gpu.New(cfg, tc.newScheme)
		// A probe instance answers whether the scheme needs MBIST; the
		// per-bank instances the system attached are interchangeable with
		// it for that question.
		rep := dvfs.RunSchedule(sys, tc.newScheme(), mbist, phases)
		fmt.Printf("%-48s %s\n", tc.name, rep)
	}

	fmt.Println()
	fmt.Println("The MBIST stalls are pure transition latency: they delay every power-")
	fmt.Println("state change and scale with cache size. Killi pays instead with a short")
	fmt.Println("relearning period per phase, overlapped with execution (paper §1, §2.4).")
}
