// killi-sim regenerates the paper's simulation-driven figures on the GPU
// memory-hierarchy model:
//
//	-fig 4: kernel execution time at 0.625×VDD normalized to a fault-free
//	        system at nominal VDD, per workload and scheme (Figure 4)
//	-fig 5: L2 misses-per-kilo-instruction, split into compute-bound and
//	        memory-bound panels (Figure 5)
//
// Both figures come from the same sweep; the flag selects what to print.
// The sweep runs as a job on the same internal/simserver engine that backs
// the killi-simd daemon, so the CLI and the service share one validation,
// caching, cancellation, and metrics path. -parallel fans the workload ×
// scheme simulations out over a worker pool (default GOMAXPROCS); results
// are bit-for-bit identical to -parallel 1. -cache <dir> keeps a
// content-addressed result cache across invocations, so re-running a figure
// with unchanged inputs is a disk read per task; cached rows are
// bit-identical to recomputed ones.
//
// SIGINT or SIGTERM during a sweep cancels the simulations at their next
// kernel boundary, sweeps stranded cache temporaries, and exits nonzero —
// an interrupted sweep never strands partial state.
//
// Observability: -timeseries out.jsonl and/or -trace-events out.json switch
// killi-sim into a single observed run (workload and scheme from
// -obs-workload / -obs-scheme) that records DFH training dynamics — state
// populations per epoch, every classification transition, ECC-cache
// pressure, interval L2 MPKI — as JSONL and/or Chrome trace_event JSON
// (load at https://ui.perfetto.dev), prints the run summary plus an ASCII
// training curve, and exits. -epoch sets the sampling epoch in cycles.
// -metrics-addr serves live sweep progress over HTTP (expvar JSON at
// /metrics) for watching long sweeps.
//
// Fault classes: -classes runs the sweep (or -misclass measurement) under a
// non-persistent fault population (intermittent / aging / transient strike
// mixes; see the grammar in the flag help). -misclass switches killi-sim
// into the DFH misclassification measurement: for each workload in
// -workloads (default xsbench) it runs one uncached simulation of
// -obs-scheme at -voltage, compares the trained DFH state against the
// fault-map ground-truth oracle, and prints the false-disable / false-trust
// / SDC table EXPERIMENTS.md embeds. -scrub-kernels re-tests disabled lines
// every N kernels during the measurement (0 = never).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"killi/internal/experiments"
	"killi/internal/faultmodel"
	"killi/internal/gpu"
	"killi/internal/obs"
	"killi/internal/simserver"
	"killi/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	fig := flag.Int("fig", 4, "figure to regenerate (4, 5, or 45 for both)")
	voltage := flag.Float64("voltage", 0.625, "LV operating point (x VDD)")
	requests := flag.Int("requests", 12000, "trace requests per CU")
	seed := flag.Uint64("seed", 1, "simulation seed")
	workloads := flag.String("workloads", "", "comma-separated workload subset (default: all ten)")
	warmup := flag.Int("warmup", 2, "warm-up kernels before the measured run (DFH persists; 0 includes training cost)")
	parallel := flag.Int("parallel", -1, "concurrent simulations (1 = serial, -1 = GOMAXPROCS/shards); output is identical at any value")
	shards := flag.Int("shards", 1, "intra-run shard count for each simulation (bank-sharded engine); output is bit-identical at any value")
	cacheDir := flag.String("cache", "", "directory for the content-addressed result cache (empty = recompute everything); cached rows are bit-identical")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (after the sweep) to this file")
	timeseries := flag.String("timeseries", "", "record one observed run's time series to this JSONL file (see -obs-workload/-obs-scheme) and exit")
	traceEvents := flag.String("trace-events", "", "record one observed run as Chrome trace_event JSON to this file and exit")
	epoch := flag.Uint64("epoch", gpu.DefaultEpochCycles, "observation epoch length in cycles")
	obsWorkload := flag.String("obs-workload", "xsbench", "workload for the observed run")
	obsScheme := flag.String("obs-scheme", "killi-1:64", "protection scheme for the observed run: "+experiments.SchemeSyntax())
	metricsAddr := flag.String("metrics-addr", "", "serve live sweep progress over HTTP on this address (e.g. localhost:8060; expvar JSON at /metrics)")
	classes := flag.String("classes", "persistent", "fault-class population for the sweep or -misclass run: "+faultmodel.ClassSyntax())
	misclass := flag.Bool("misclass", false, "measure DFH misclassification against the ground-truth oracle (workloads from -workloads, scheme from -obs-scheme) and exit")
	scrubKernels := flag.Int("scrub-kernels", 0, "with -misclass: re-test disabled lines every N kernels (0 = never scrub)")
	flag.Parse()

	// Reject bad flag combinations before any work starts.
	if err := experiments.ValidateFlags(*requests, *parallel, *shards, runtime.GOMAXPROCS(0)); err != nil {
		fmt.Fprintf(os.Stderr, "killi-sim: %v\n", err)
		return 2
	}
	switch *fig {
	case 4, 5, 45:
	default:
		fmt.Fprintf(os.Stderr, "killi-sim: unknown figure %d (want 4, 5, or 45)\n", *fig)
		return 2
	}
	if *scrubKernels != 0 && !*misclass {
		fmt.Fprintln(os.Stderr, "killi-sim: -scrub-kernels applies only to -misclass runs")
		return 2
	}
	// Every mode's run inputs pass the one normalization its runs use; the
	// explicit voltage must pass the voltage rule even where 0 would mean
	// the default.
	cfg := experiments.Config{Voltage: *voltage, RequestsPerCU: *requests, Seed: *seed,
		Workloads: experiments.SplitList(*workloads), WarmupKernels: *warmup, Shards: *shards,
		FaultClasses: *classes, ScrubKernels: *scrubKernels}
	observed := *timeseries != "" || *traceEvents != ""
	if observed && !*misclass {
		cfg.Workloads = []string{*obsWorkload}
	}
	err := faultmodel.CheckVoltage(*voltage)
	if err == nil {
		_, err = cfg.Normalized()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "killi-sim: %v\n", err)
		return 2
	}

	// ctx ends on the first SIGINT/SIGTERM; a second signal kills the
	// process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *misclass {
		err := misclassRun(ctx, cfg, *obsScheme)
		switch {
		case errors.Is(err, context.Canceled):
			fmt.Fprintln(os.Stderr, "killi-sim: interrupted")
			return 130
		case err != nil:
			fmt.Fprintf(os.Stderr, "killi-sim: %v\n", err)
			return 1
		}
		return 0
	}

	if observed {
		// The observed run measures the persistent population.
		cfg.FaultClasses = ""
		err := observedRun(ctx, *timeseries, *traceEvents, cfg, *obsWorkload, *obsScheme, *epoch)
		switch {
		case errors.Is(err, context.Canceled):
			fmt.Fprintln(os.Stderr, "killi-sim: interrupted")
			return 130
		case err != nil:
			fmt.Fprintf(os.Stderr, "killi-sim: %v\n", err)
			return 1
		}
		return 0
	}

	stopProfiles, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "killi-sim: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "killi-sim: %v\n", err)
		}
	}()

	var metrics *obs.Metrics
	if *metricsAddr != "" {
		metrics = obs.NewMetrics()
		addr, err := metrics.Serve(*metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "killi-sim: -metrics-addr: %v\n", err)
			return 1
		}
		defer metrics.Close()
		fmt.Fprintf(os.Stderr, "killi-sim: serving sweep progress at http://%s/metrics\n", addr)
	}

	// The sweep is one job on the in-process engine — the CLI is a thin
	// client of the API killi-simd serves over HTTP. One worker: the job's
	// own Parallelism fans out inside it.
	svc, err := simserver.New(simserver.Config{
		CacheDir: *cacheDir,
		Shards:   *shards,
		Workers:  1,
		Metrics:  metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "killi-sim: %v\n", err)
		return 1
	}
	res, err := svc.Submit(ctx, simserver.JobRequest{
		Kind:          simserver.KindSweep,
		Voltage:       *voltage,
		RequestsPerCU: *requests,
		Seed:          *seed,
		WarmupKernels: *warmup,
		Shards:        *shards,
		Parallelism:   *parallel,
		Workloads:     experiments.SplitList(*workloads),
		FaultClasses:  []string{*classes},
	})
	if ctx.Err() != nil {
		// Interrupted: force the drain with an already-expired context so
		// workers stop at their next kernel boundary and the engine sweeps
		// stranded cache temp files, then report the interruption.
		expired, cancel := context.WithCancel(context.Background())
		cancel()
		_ = svc.Close(expired)
		fmt.Fprintln(os.Stderr, "killi-sim: interrupted")
		return 130
	}
	if err != nil {
		_ = svc.Close(context.Background())
		fmt.Fprintf(os.Stderr, "killi-sim: %v\n", err)
		return 1
	}
	if err := svc.Close(context.Background()); err != nil {
		fmt.Fprintf(os.Stderr, "killi-sim: %v\n", err)
		return 1
	}

	switch *fig {
	case 4:
		printFig4(res.Rows, *voltage)
	case 5:
		printFig5(res.Rows, *voltage)
	case 45:
		printFig4(res.Rows, *voltage)
		fmt.Println()
		printFig5(res.Rows, *voltage)
	}
	return 0
}

// misclassRun runs the DFH misclassification measurement for each of
// cfg's workloads (default xsbench) against the given scheme and prints the
// ground-truth comparison table. Runs are never cached: the measurement
// needs live counters.
func misclassRun(ctx context.Context, cfg experiments.Config, schemeName string) error {
	names := cfg.Workloads
	if len(names) == 0 {
		names = []string{"xsbench"}
	}
	var rows []experiments.MisclassRow
	for _, w := range names {
		row, err := experiments.RunMisclass(ctx, cfg, w, schemeName, cfg.Voltage)
		if err != nil {
			return err
		}
		rows = append(rows, row)
	}
	return experiments.WriteMisclassTable(os.Stdout, rows)
}

// observedRun simulates one workload × scheme pair with a Collector
// attached and writes the requested exports, then prints the run summary —
// including its own wall-clock, so the observation overhead claim is
// measured rather than asserted — and the DFH training curve.
func observedRun(ctx context.Context, tsPath, tePath string, cfg experiments.Config, workloadName, schemeName string, epoch uint64) error {
	newScheme, err := experiments.SchemeFactoryByName(schemeName)
	if err != nil {
		return err
	}
	col := obs.NewCollector()
	start := time.Now()
	res, err := experiments.RunOneObserved(ctx, cfg, workloadName, newScheme, cfg.Voltage, col, epoch)
	wall := time.Since(start)
	if err != nil {
		return err
	}
	write := func(path string, render func(*os.File) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := render(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if tsPath != "" {
		if err := write(tsPath, func(f *os.File) error { return col.WriteJSONL(f) }); err != nil {
			return fmt.Errorf("-timeseries: %w", err)
		}
		fmt.Printf("wrote %d resets, %d transitions, %d epochs to %s\n",
			len(col.Resets()), len(col.Transitions()), len(col.Epochs()), tsPath)
	}
	if tePath != "" {
		if err := write(tePath, func(f *os.File) error { return col.WriteTraceEvents(f) }); err != nil {
			return fmt.Errorf("-trace-events: %w", err)
		}
		fmt.Printf("wrote trace_event JSON to %s (open at https://ui.perfetto.dev)\n", tePath)
	}
	fmt.Printf("\n%s × %s @ %.3fxVDD, %d requests/CU, %d warmup kernels, epoch %d cycles, %d shards\n",
		workloadName, schemeName, cfg.Voltage, cfg.RequestsPerCU, cfg.WarmupKernels, epoch, cfg.Shards)
	fmt.Printf("cycles %d, instructions %d, L2 MPKI %.2f, disabled lines %d\n",
		res.Cycles, res.Instructions, res.MPKI(), res.DisabledLines)
	fmt.Printf("observed run wall-clock: %.3fs\n", wall.Seconds())
	pop := col.Populations()
	fmt.Printf("final DFH populations: stable0 %d, initial %d, stable1 %d, disabled %d\n\n",
		pop[obs.StateStable0], pop[obs.StateInitial], pop[obs.StateStable1], pop[obs.StateDisabled])
	if curve := col.TrainingCurve(); curve != "" {
		fmt.Println(curve)
	}
	return nil
}

func header(rows []experiments.Row) []string {
	if len(rows) == 0 {
		return nil
	}
	return rows[0].SchemeNames()
}

func printFig4(rows []experiments.Row, v float64) {
	fmt.Printf("# Figure 4: execution time at %.3fxVDD normalized to fault-free 1.0xVDD\n", v)
	names := header(rows)
	fmt.Printf("%-12s %-14s", "workload", "class")
	for _, n := range names {
		fmt.Printf(" %-12s", n)
	}
	fmt.Println()
	for _, r := range rows {
		fmt.Printf("%-12s %-14s", r.Workload, r.Class)
		for _, n := range names {
			fmt.Printf(" %-12.4f", r.Normalized[n])
		}
		fmt.Println()
	}
}

func printFig5(rows []experiments.Row, v float64) {
	names := header(rows)
	for _, class := range []workload.Class{workload.ComputeBound, workload.MemoryBound} {
		fmt.Printf("# Figure 5 (%s panel): L2 MPKI at %.3fxVDD\n", class, v)
		fmt.Printf("%-12s %-10s", "workload", "baseline")
		for _, n := range names {
			fmt.Printf(" %-12s", n)
		}
		fmt.Println()
		for _, r := range rows {
			if r.Class != class {
				continue
			}
			fmt.Printf("%-12s %-10.2f", r.Workload, r.BaselineMPKI)
			for _, n := range names {
				fmt.Printf(" %-12.2f", r.MPKI[n])
			}
			fmt.Println()
		}
		fmt.Println()
	}
}
