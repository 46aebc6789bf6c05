// killi-fleet runs fleet-scale Monte Carlo campaigns: N simulated dies —
// each a distinct fault population drawn from a per-die seed stream —
// crossed with a voltage grid and a protection-scheme list, streamed
// through online aggregation into per-(scheme, voltage) yield with 95%
// confidence intervals, normalized-execution-time quantiles, and per-die
// Vmin CDFs. It answers the deployment question the paper's single-map
// experiments cannot: across a fleet of devices, what fraction is
// deployable at each operating point under each scheme?
//
//	go run ./cmd/killi-fleet -dies 1000 -schemes killi-1:64,msecc
//	go run ./cmd/killi-fleet -dies 256 -voltages 0.55:0.725:0.025 -format csv -o cdf.csv
//
// -voltages accepts either a comma-separated grid ("0.575,0.625,0.675") or
// a lo:hi:step range; -format selects table (human), csv, or jsonl (both
// machine-readable, floats at full precision). -classes adds a fault-class
// axis — semicolon-separated faultmodel.ClassSyntax specs (semicolons
// because mixed specs contain commas), one campaign pass per spec, reported
// in the "classes" output column. A fixed -seed reproduces the output
// bit-for-bit at any -parallel and -shards value. SIGINT or SIGTERM
// cancels in-flight simulations at their next kernel boundary and exits 130.
//
// -cache <dir> enables the content-addressed result cache at two grains: a
// warm re-run of an identical campaign streams whole-die records at
// near-disk speed, and a campaign sharing a (seed, die, workload, scheme,
// classes) prefix with an earlier one (say, new grid voltages) only
// simulates the new cells. -checkpoint <dir> appends each die's record to a
// restart journal as it merges; -resume replays the journal's valid prefix
// and dispatches only the remaining dies. Cached, resumed, and cold runs
// produce byte-identical output at any -parallel value; the run summary
// (wall-clock, cache/resume counts) goes to stderr, never into the output.
//
// -cpuprofile and -memprofile write pprof profiles of the campaign, as
// killi-sim's do for a sweep.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/big"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"killi/internal/campaign"
	"killi/internal/experiments"
	"killi/internal/faultmodel"
	"killi/internal/obs"
)

func main() {
	os.Exit(run())
}

func run() int {
	dies := flag.Int("dies", 100, "number of Monte Carlo device instances")
	workloads := flag.String("workloads", "xsbench", "comma-separated workloads to campaign over")
	schemes := flag.String("schemes", "killi-1:64,msecc", "comma-separated protection schemes: "+experiments.SchemeSyntax())
	voltages := flag.String("voltages", "", "voltage grid: comma-separated points or lo:hi:step (default the paper's 0.575..0.700 in 25 mV steps)")
	classes := flag.String("classes", "persistent", "semicolon-separated fault-class axis, each spec: "+faultmodel.ClassSyntax())
	seed := flag.Uint64("seed", 1, "campaign seed; output is bit-reproducible for a fixed seed at any -parallel/-shards")
	requests := flag.Int("requests", 2000, "trace requests per CU")
	warmup := flag.Int("warmup", 0, "warm-up kernels before each measured run")
	parallel := flag.Int("parallel", -1, "concurrently simulating dies (1 = serial, -1 = GOMAXPROCS/shards); output is identical at any value")
	shards := flag.Int("shards", 1, "intra-simulation shard count; output is bit-identical at any value")
	threshold := flag.Float64("threshold", campaign.DefaultPassThreshold, "pass criterion: max execution time normalized to the die's fault-free baseline")
	format := flag.String("format", campaign.FormatTable, "output format: table, csv, or jsonl")
	out := flag.String("o", "", "write output to this file (default stdout)")
	progress := flag.Bool("progress", false, "report campaign progress on stderr")
	cache := flag.String("cache", "", "content-addressed result cache directory: whole-die records for warm re-runs plus per-cell entries shared with killi-sim")
	checkpoint := flag.String("checkpoint", "", "append completed die records to a restart journal in this directory")
	resume := flag.Bool("resume", false, "replay the -checkpoint journal's valid prefix before dispatching the remaining dies")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (after the campaign) to this file")
	flag.Parse()

	if err := experiments.ValidateFlags(*requests, *parallel, *shards, runtime.GOMAXPROCS(0)); err != nil {
		fmt.Fprintf(os.Stderr, "killi-fleet: %v\n", err)
		return 2
	}
	if *resume && *checkpoint == "" {
		fmt.Fprintln(os.Stderr, "killi-fleet: -resume needs -checkpoint (the journal to replay)")
		return 2
	}
	grid, err := parseVoltages(*voltages)
	if err != nil {
		fmt.Fprintf(os.Stderr, "killi-fleet: -voltages: %v\n", err)
		return 2
	}

	cfg := campaign.Config{
		Workloads:     experiments.SplitList(*workloads),
		Schemes:       experiments.SplitList(*schemes),
		FaultClasses:  splitClasses(*classes),
		Voltages:      grid,
		Dies:          *dies,
		Seed:          *seed,
		RequestsPerCU: *requests,
		WarmupKernels: *warmup,
		Parallelism:   *parallel,
		Shards:        *shards,
		PassThreshold: *threshold,
		CacheDir:      *cache,
		CheckpointDir: *checkpoint,
		Resume:        *resume,
	}
	if *progress {
		// Throttle to ~1% steps so a 100k-die campaign does not melt the
		// terminal; Run calls this in die order, so "done" never regresses.
		step := max(1, *dies/100)
		cfg.Progress = func(p campaign.ProgressInfo) {
			if p.Done%step == 0 || p.Done == p.Total {
				fmt.Fprintf(os.Stderr, "\rkilli-fleet: %d/%d dies (%.0f%%, %d cached, %d resumed)",
					p.Done, p.Total, 100*float64(p.Done)/float64(p.Total), p.Cached, p.Resumed)
				if p.Done == p.Total {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
	}
	// Validate now so flag errors exit 2 before any simulation runs.
	if _, err := cfg.Normalized(); err != nil {
		fmt.Fprintf(os.Stderr, "killi-fleet: %v\n", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	stopProfiles, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "killi-fleet: %v\n", err)
		return 1
	}
	res, err := campaign.Run(ctx, cfg)
	if perr := stopProfiles(); perr != nil {
		fmt.Fprintf(os.Stderr, "killi-fleet: %v\n", perr)
	}
	switch {
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "killi-fleet: interrupted")
		return 130
	case err != nil:
		fmt.Fprintf(os.Stderr, "killi-fleet: %v\n", err)
		return 1
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "killi-fleet: -o: %v\n", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	if err := res.Write(w, *format); err != nil {
		fmt.Fprintf(os.Stderr, "killi-fleet: %v\n", err)
		return 1
	}
	// The run summary goes to stderr: output formats are pure functions of
	// the aggregates so warm/resumed runs diff clean, and CI greps this
	// line to assert cache warmth.
	fmt.Fprintf(os.Stderr, "killi-fleet: %d dies in %.1fs (%.2f dies/s; cached=%d resumed=%d cellhits=%d)\n",
		res.Dies, res.ElapsedSeconds, res.DiesPerSecond, res.CachedDies, res.ResumedDies, res.CellCacheHits)
	return 0
}

// splitClasses splits the -classes axis on semicolons (mixed specs contain
// commas, so the usual comma list would split them apart). Validation is
// campaign.Config.Normalized's job.
func splitClasses(s string) []string {
	var specs []string
	for _, part := range strings.Split(s, ";") {
		if part = strings.TrimSpace(part); part != "" {
			specs = append(specs, part)
		}
	}
	return specs
}

// maxGridPoints bounds a lo:hi:step range: a step tiny against hi-lo would
// otherwise overflow the point count or allocate without bound.
const maxGridPoints = 1 << 16

// parseVoltages parses the -voltages grammar: empty (the default grid), a
// comma-separated list, or an inclusive lo:hi:step range. Range points are
// lo + i*step computed exactly on the decimals as spelled, then rounded
// once, so "0.575:0.7:0.025" is the list 0.575,0.6,...,0.7 bit for bit and
// no point passes hi.
func parseVoltages(s string) ([]float64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil // campaign.Config applies the default grid
	}
	if strings.Contains(s, ":") {
		parts := strings.Split(s, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("range must be lo:hi:step, got %q", s)
		}
		var v [3]*big.Rat
		for i, p := range parts {
			// ParseFloat keeps the grammar to float literals (no "a/b");
			// the Rat is the exact decimal, and rejects NaN and infinities.
			p = strings.TrimSpace(p)
			_, err := strconv.ParseFloat(p, 64)
			r, ok := new(big.Rat).SetString(p)
			if err != nil || !ok {
				return nil, fmt.Errorf("bad range component %q", p)
			}
			v[i] = r
		}
		lo, hi, step := v[0], v[1], v[2]
		if step.Sign() <= 0 || hi.Cmp(lo) < 0 {
			return nil, fmt.Errorf("range %q needs hi >= lo and step > 0", s)
		}
		span := new(big.Rat).Quo(new(big.Rat).Sub(hi, lo), step)
		last := new(big.Int).Quo(span.Num(), span.Denom())
		if last.Cmp(big.NewInt(maxGridPoints)) >= 0 {
			return nil, fmt.Errorf("range %q has more than %d points", s, maxGridPoints)
		}
		grid := make([]float64, 0, last.Int64()+1)
		for x := lo; x.Cmp(hi) <= 0; x = new(big.Rat).Add(x, step) {
			f, _ := x.Float64()
			if len(grid) > 0 && f == grid[len(grid)-1] {
				return nil, fmt.Errorf("range %q steps below float64 resolution", s)
			}
			grid = append(grid, f)
		}
		return grid, nil
	}
	var grid []float64
	for _, p := range experiments.SplitList(s) {
		f, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("bad voltage %q", p)
		}
		grid = append(grid, f)
	}
	if len(grid) == 0 {
		return nil, fmt.Errorf("no voltages in %q", s)
	}
	return grid, nil
}
