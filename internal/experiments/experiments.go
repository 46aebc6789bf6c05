// Package experiments assembles the paper's simulation-driven evaluation
// (Figures 4 and 5): workload × protection-scheme sweeps over the GPU
// model, with execution time normalized to the fault-free nominal-voltage
// baseline and L2 MPKI per configuration.
//
// The sweep fans out over a worker pool (Config.Parallelism): every
// workload × scheme simulation is an independent task with its own
// gpu.System and protection.Scheme, sharing only read-only traces, and the
// merge order is fixed, so the parallel path produces bit-for-bit the same
// rows as the serial one.
//
// The package is shared by cmd/killi-sim and the repository's benchmark
// harness so both print identical rows.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"killi/internal/faultmodel"
	"killi/internal/gpu"
	"killi/internal/killi"
	"killi/internal/obs"
	"killi/internal/protection"
	"killi/internal/simcache"
	"killi/internal/workload"
)

// KilliRatios are the ECC cache sizes the paper sweeps.
var KilliRatios = []int{256, 128, 64, 32, 16}

// SchemeSpec names a protection scheme and builds fresh instances
// (schemes carry per-run state, so every simulation needs its own).
type SchemeSpec struct {
	Name string
	New  func() protection.Scheme
}

// Schemes returns the paper's comparison set: DECTED-per-line, FLAIR,
// MS-ECC, and Killi at each ECC cache ratio.
func Schemes() []SchemeSpec {
	specs := []SchemeSpec{
		{Name: "dected", New: func() protection.Scheme { return protection.NewDECTEDPerLine() }},
		{Name: "flair", New: func() protection.Scheme { return protection.NewFLAIR() }},
		{Name: "msecc", New: func() protection.Scheme { return protection.NewMSECC() }},
	}
	for _, r := range KilliRatios {
		r := r
		specs = append(specs, SchemeSpec{
			Name: fmt.Sprintf("killi-1:%d", r),
			New:  func() protection.Scheme { return killi.New(killi.Config{Ratio: r}) },
		})
	}
	return specs
}

// SchemeByName builds a fresh protection scheme from a stable name:
// "none", "secded", "dected", "flair", "msecc", or "killi-1:<ratio>"
// (optionally "killi-dected-1:<ratio>" for the §5.2 extension, or
// "killi-olsc<strength>-1:<ratio>" for the §5.5 low-Vmin mode). Parsing is
// strict: a malformed or trailing-garbage name is an error, never a guess.
func SchemeByName(name string) (protection.Scheme, error) {
	switch name {
	case "none":
		return protection.NewNone(), nil
	case "secded":
		return protection.NewSECDEDPerLine(), nil
	case "dected":
		return protection.NewDECTEDPerLine(), nil
	case "flair":
		return protection.NewFLAIR(), nil
	case "msecc":
		return protection.NewMSECC(), nil
	}
	if rest, ok := strings.CutPrefix(name, "killi-"); ok {
		if s, ok := strings.CutPrefix(rest, "dected-"); ok {
			ratio, err := parseRatio(s)
			if err != nil {
				return nil, fmt.Errorf("experiments: bad scheme %q: %v", name, err)
			}
			return killi.New(killi.Config{Ratio: ratio, UseDECTED: true}), nil
		}
		if s, ok := strings.CutPrefix(rest, "olsc"); ok {
			strengthStr, ratioStr, found := strings.Cut(s, "-")
			if !found {
				return nil, fmt.Errorf("experiments: bad scheme %q: want killi-olsc<strength>-1:<ratio>", name)
			}
			strength, err := strconv.Atoi(strengthStr)
			if err != nil || strength < 1 {
				return nil, fmt.Errorf("experiments: bad scheme %q: OLSC strength must be a positive integer", name)
			}
			ratio, err := parseRatio(ratioStr)
			if err != nil {
				return nil, fmt.Errorf("experiments: bad scheme %q: %v", name, err)
			}
			return killi.New(killi.Config{Ratio: ratio, OLSCStrength: strength}), nil
		}
		ratio, err := parseRatio(rest)
		if err != nil {
			return nil, fmt.Errorf("experiments: bad scheme %q: %v", name, err)
		}
		return killi.New(killi.Config{Ratio: ratio}), nil
	}
	return nil, fmt.Errorf("experiments: unknown scheme %q", name)
}

// parseRatio parses the "1:<ratio>" suffix of a Killi scheme name,
// rejecting anything but a positive integer ratio with no trailing bytes.
func parseRatio(s string) (int, error) {
	digits, ok := strings.CutPrefix(s, "1:")
	if !ok {
		return 0, fmt.Errorf("want an ECC cache ratio of the form 1:<n>, got %q", s)
	}
	n, err := strconv.Atoi(digits)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("want a positive integer ECC cache ratio, got %q", digits)
	}
	return n, nil
}

// SchemeFactoryByName validates a scheme name once and returns a factory
// building fresh instances of it — the form gpu.New consumes, since the
// sharded L2 attaches one scheme instance per bank. The name grammar is
// SchemeSyntax, exactly as SchemeByName.
func SchemeFactoryByName(name string) (protection.Factory, error) {
	if _, err := SchemeByName(name); err != nil {
		return nil, err
	}
	return func() protection.Scheme {
		s, err := SchemeByName(name)
		if err != nil {
			// Unreachable: the name was validated above and parsing is pure.
			panic(err)
		}
		return s
	}, nil
}

// SchemeSyntax is the single source of truth for the scheme-name grammar
// accepted by SchemeByName. CLI -scheme flag help and README documentation
// must quote it verbatim (pinned by TestSchemeSyntaxSingleSource) instead of
// restating the forms by hand, so the documented grammar can never drift
// from the parser.
func SchemeSyntax() string {
	return "none | secded | dected | flair | msecc | killi-1:<ratio> | " +
		"killi-dected-1:<ratio> | killi-olsc<strength>-1:<ratio>"
}

// SchemeExamples returns one concrete, parseable name per scheme form in
// SchemeSyntax. Tests feed every example through SchemeByName so the
// documented forms are guaranteed to construct.
func SchemeExamples() []string {
	return []string{
		"none", "secded", "dected", "flair", "msecc",
		"killi-1:64", "killi-dected-1:64", "killi-olsc2-1:64",
	}
}

// SplitList splits a comma-separated CLI list, trimming whitespace around
// every entry and dropping empty ones, so "fft, xsbench" and "fft,,xsbench,"
// both mean {fft, xsbench}.
func SplitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// Config parameterizes a sweep.
type Config struct {
	// Voltage is the LV operating point (paper: 0.625).
	Voltage float64
	// RequestsPerCU is the trace length per compute unit.
	RequestsPerCU int
	// Seed drives trace generation and fault sampling.
	Seed uint64
	// GPU overrides the base GPU configuration (zero value = Table 3).
	GPU *gpu.Config
	// Workloads restricts the sweep (nil = the full ten-workload catalog).
	Workloads []string
	// WarmupKernels runs this many kernels before the measured run. DFH
	// state persists across kernels (the paper trains once per reset, not
	// per kernel), so warmups exclude one-time training cost from the
	// measurement — the steady state the paper's long kernels reach on
	// their own. Zero measures the first kernel, training included. Each
	// kernel walks the same data structures in a fresh request order (an
	// exact replay of one request sequence is both unrealistic and
	// adversarial to LRU).
	WarmupKernels int
	// Parallelism bounds the number of concurrently running simulations.
	// 0 or 1 runs the sweep serially; higher values use a worker pool of
	// that size; negative values mean GOMAXPROCS divided by Shards (so
	// shards x sweep workers stays budgeted against the machine). Every
	// task builds its own gpu.System and protection schemes and the merge
	// order is fixed, so results are bit-for-bit identical at any
	// parallelism.
	Parallelism int
	// Shards is the intra-run shard count each simulation runs with
	// (gpu.System.SetShards). Results are bit-identical at every value —
	// the engine's lookahead barrier keeps per-domain event order
	// canonical — so this knob, like Parallelism, trades only wall-clock.
	// 0 or 1 is the serial fast path.
	Shards int
	// CacheDir, when non-empty, enables the content-addressed result cache
	// (internal/simcache) rooted at that directory: every task result is
	// keyed by a digest of its complete input description (GPU config,
	// scheme, workload, seed, trace length, warmup kernels) and reused by
	// later runs with identical inputs. Cached rows are bit-identical to
	// recomputed ones; corrupted or stale entries are recomputed. Cached
	// results carry no debug Counters.
	CacheDir string
	// FaultClasses selects the fault population's class mix for the LV
	// scheme runs, in faultmodel.ClassSyntax ("persistent" or a
	// "mixed:..." spec); empty means persistent, the paper's model. The
	// fault-free nominal baseline always runs with the zero spec, so
	// transient strikes never corrupt the unprotected reference machine.
	FaultClasses string
	// ScrubKernels, when positive, runs the scheme's disabled-line
	// scrubber (gpu.System.Scrub) after every ScrubKernels-th kernel,
	// except after the last. Zero never scrubs. Schemes without a
	// scrubber ignore the knob.
	ScrubKernels int
	// Progress, when non-nil, is called once per completed sweep task with
	// the cumulative completed count and the total task count. With
	// Parallelism > 1 it is called from worker goroutines (the counts stay
	// consistent; call order across workers is not deterministic), so the
	// callback must be safe for concurrent use. It feeds killi-sim's
	// -metrics-addr live-progress endpoint and never affects results.
	Progress func(done, total int)
}

func (c Config) withDefaults() Config {
	if c.Voltage == 0 {
		c.Voltage = 0.625
	}
	if c.RequestsPerCU == 0 {
		c.RequestsPerCU = 4000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.Workloads) == 0 {
		for _, w := range workload.Catalog() {
			c.Workloads = append(c.Workloads, w.Name)
		}
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.Parallelism < 0 {
		c.Parallelism = max(1, runtime.GOMAXPROCS(0)/c.Shards)
	}
	if c.Parallelism == 0 {
		c.Parallelism = 1
	}
	return c
}

func (c Config) baseGPU() gpu.Config {
	if c.GPU != nil {
		return *c.GPU
	}
	return gpu.DefaultConfig()
}

// Row is one workload's results across every scheme.
type Row struct {
	Workload string
	Class    workload.Class
	// BaselineCycles is the fault-free nominal-voltage execution time.
	BaselineCycles uint64
	// BaselineMPKI is the fault-free L2 MPKI.
	BaselineMPKI float64
	// Normalized maps scheme name → execution time / baseline (Figure 4).
	Normalized map[string]float64
	// MPKI maps scheme name → L2 MPKI (Figure 5).
	MPKI map[string]float64
	// Disabled maps scheme name → disabled L2 lines at run end.
	Disabled map[string]int
}

// SchemeNames returns the row's scheme names in a stable order.
func (r Row) SchemeNames() []string {
	names := make([]string, 0, len(r.Normalized))
	for n := range r.Normalized {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// kernelSeed derives the trace seed for the k-th kernel of a sweep: kernel
// 0 uses the configured seed unchanged, later kernels re-walk the same
// data structures in fresh orders.
func kernelSeed(seed uint64, k int) uint64 {
	if k == 0 {
		return seed
	}
	return seed ^ (uint64(k) * 0xa24baed4963ee407)
}

// KernelSeeds lists the trace seeds for a warmup+measured kernel sequence:
// element k drives kernel k, with kernel 0 using the configured seed
// unchanged. Exported for internal/campaign, which builds each workload's
// TraceSet once and shares it across every die of a fleet — the traces must
// be exactly the ones Run and RunOne would generate, so the derivation is
// pinned by TestKernelSeedsGolden.
func KernelSeeds(seed uint64, warmups int) []uint64 {
	out := make([]uint64, warmups+1)
	for k := range out {
		out[k] = kernelSeed(seed, k)
	}
	return out
}

// runKernels drives one simulation through every warmup kernel and returns
// the measured (final) kernel's result. Cancellation is checked between
// kernels — one kernel is the unit of work the engine runs to completion,
// so that is the granularity at which an interrupted run stops. When
// scrubEvery is positive, the scheme's disabled-line scrubber runs after
// every scrubEvery-th kernel except the last, so the measured kernel sees
// the scrubber's steady-state reclaim/re-disable churn but never a scrub
// immediately before its own measurement.
func runKernels(ctx context.Context, sys *gpu.System, traces *workload.TraceSet, scrubEvery int) (gpu.Result, error) {
	var res gpu.Result
	for k := 0; k < traces.Kernels(); k++ {
		if err := ctx.Err(); err != nil {
			return gpu.Result{}, err
		}
		res = sys.Run(traces.Kernel(k))
		if scrubEvery > 0 && k+1 < traces.Kernels() && (k+1)%scrubEvery == 0 {
			sys.Scrub()
		}
	}
	return res, nil
}

// task is one independent simulation of the sweep: a workload's fault-free
// baseline (scheme == -1) or one of its LV scheme runs.
type task struct {
	workload int
	scheme   int // index into Schemes(), or -1 for the baseline
}

// taskDesc canonically describes one sweep task's complete inputs for the
// result cache. The GPU config is rendered with %#v — it is deliberately a
// flat value type (no pointers, maps, or function fields), so the rendering
// is a stable, exhaustive serialization; any new config field automatically
// changes the key. The scheme is identified by its catalog name, which
// encodes its configuration (e.g. "killi-1:64").
func taskDesc(cfg Config, g gpu.Config, schemeName, workloadName string) string {
	return fmt.Sprintf("gpu=%#v\nscheme=%s\nworkload=%s\nseed=%d\nrequests=%d\nwarmup=%d\nscrub=%d",
		g, schemeName, workloadName, cfg.Seed, cfg.RequestsPerCU, cfg.WarmupKernels, cfg.ScrubKernels)
}

// CellKey returns the simcache key for one simulation cell described by its
// complete inputs — the exact key Run and RunOne use for the same inputs
// (scrub fixed at 0, matching RunShared), so a campaign's per-cell cache
// entries and a sweep's entries are one shared population: a fleet campaign
// warms the cache for later killi-sim runs and vice versa.
func CellKey(g gpu.Config, schemeName, workloadName string, seed uint64, requests, warmup int) string {
	cfg := Config{Seed: seed, RequestsPerCU: requests, WarmupKernels: warmup}
	return simcache.Key(taskDesc(cfg, g, schemeName, workloadName))
}

// CacheableResult extracts the scalar slice of a result that the cache
// stores; ResultFromCache inverts it. Exported for internal/campaign, which
// shares the sweep's per-cell cache population.
func CacheableResult(res gpu.Result) simcache.Result { return cacheable(res) }

// ResultFromCache rebuilds a gpu.Result from a cache entry. Counters stay
// nil: consumers of cached results use only the scalars.
func ResultFromCache(c simcache.Result) gpu.Result { return cachedResult(c) }

// cacheable extracts the scalar slice of a result that the cache stores.
func cacheable(res gpu.Result) simcache.Result {
	c := simcache.Result{
		Cycles:           res.Cycles,
		Instructions:     res.Instructions,
		L2Misses:         res.L2Misses,
		L2Accesses:       res.L2Accesses,
		MemAccesses:      res.MemAccesses,
		DisabledLines:    res.DisabledLines,
		SDC:              res.SDC,
		TransientStrikes: res.TransientStrikes,
	}
	if res.HasMisclass {
		c.MisclassLines = res.Misclass.Lines
		c.TrueFaulty = res.Misclass.TrueFaulty
		c.MisclassDisabled = res.Misclass.Disabled
		c.MisclassInitial = res.Misclass.Initial
		c.FalseDisable = res.Misclass.FalseDisable
		c.FalseTrust = res.Misclass.FalseTrust
	}
	return c
}

// cachedResult rebuilds a gpu.Result from a cache entry. Counters stay nil:
// the sweep merge consumes only the scalars, for simulated and cached tasks
// alike.
func cachedResult(c simcache.Result) gpu.Result {
	res := gpu.Result{
		Cycles:           c.Cycles,
		Instructions:     c.Instructions,
		L2Misses:         c.L2Misses,
		L2Accesses:       c.L2Accesses,
		MemAccesses:      c.MemAccesses,
		DisabledLines:    c.DisabledLines,
		SDC:              c.SDC,
		TransientStrikes: c.TransientStrikes,
	}
	if c.MisclassLines > 0 {
		res.HasMisclass = true
		res.Misclass = gpu.Misclass{
			Lines:        c.MisclassLines,
			TrueFaulty:   c.TrueFaulty,
			Disabled:     c.MisclassDisabled,
			Initial:      c.MisclassInitial,
			FalseDisable: c.FalseDisable,
			FalseTrust:   c.FalseTrust,
		}
	}
	return res
}

// Run executes the full sweep: for each workload, a fault-free baseline at
// nominal voltage plus every scheme at the LV operating point. With
// cfg.Parallelism > 1 the tasks fan out over a worker pool; the output is
// identical to the serial sweep in either case.
//
// Cancelling ctx stops the sweep at the next kernel boundary of every
// in-flight task, drains the worker pool, removes any stranded simcache
// "put-*" temp files, and returns ctx.Err() — an interrupted sweep leaves
// no partial state behind (pinned by TestRunCancellation).
func Run(ctx context.Context, cfg Config) ([]Row, error) {
	cfg = cfg.withDefaults()
	base := cfg.baseGPU()
	classes, err := faultmodel.ParseClassSpec(cfg.FaultClasses)
	if err != nil {
		return nil, err
	}
	specs := Schemes()

	// Resolve workloads and generate every kernel's traces up front, so
	// unknown names fail before any simulation runs and the (read-only)
	// packed traces are shared across that workload's tasks.
	seeds := KernelSeeds(cfg.Seed, cfg.WarmupKernels)
	loads := make([]workload.Workload, len(cfg.Workloads))
	traces := make([]*workload.TraceSet, len(cfg.Workloads))
	for i, name := range cfg.Workloads {
		w, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		loads[i] = w
		traces[i] = w.TraceSet(base.CUs, cfg.RequestsPerCU, seeds)
	}

	// The sweep runs every task at one of two operating points — the
	// fault-free nominal baseline and the LV point — so the identical
	// 32K-line fault population each task would sample from cfg.FaultSeed
	// is built and voltage-resolved exactly once per point and handed to
	// every System read-only.
	gBase, gLV := base, base
	gBase.Voltage = 1.0
	gLV.Voltage = cfg.Voltage
	faultsBase := gpu.BuildSharedFaults(gBase)
	faultsLV := gpu.BuildSharedFaults(gLV)

	tasks := make([]task, 0, len(loads)*(len(specs)+1))
	for wi := range loads {
		tasks = append(tasks, task{workload: wi, scheme: -1})
		for si := range specs {
			tasks = append(tasks, task{workload: wi, scheme: si})
		}
	}

	var store *simcache.Store
	if cfg.CacheDir != "" {
		var err error
		if store, err = simcache.Open(cfg.CacheDir); err != nil {
			return nil, err
		}
	}

	// Each task keeps only its scalar result, in the cache's shape whether
	// it was simulated or read back: a gpu.Result's Counters alias its
	// System, so retaining those until the merge would keep every finished
	// simulation's arrays alive and make the sweep's memory grow with its
	// task count instead of its worker count.
	var tasksDone atomic.Int64
	runTask := func(t task) (simcache.Result, error) {
		g := base
		var newScheme protection.Factory
		var schemeName string
		var faults *gpu.SharedFaults
		if t.scheme < 0 {
			// The baseline keeps the zero ClassSpec: it is the fault-free
			// nominal reference, so not even transient strikes touch it.
			g.Voltage = 1.0
			newScheme = func() protection.Scheme { return protection.NewNone() }
			schemeName = "none"
			faults = faultsBase
		} else {
			g.Voltage = cfg.Voltage
			g.Classes = classes
			newScheme = specs[t.scheme].New
			schemeName = specs[t.scheme].Name
			faults = faultsLV
		}
		done := func(res simcache.Result) simcache.Result {
			if cfg.Progress != nil {
				cfg.Progress(int(tasksDone.Add(1)), len(tasks))
			}
			return res
		}
		var key string
		if store != nil {
			key = simcache.Key(taskDesc(cfg, g, schemeName, loads[t.workload].Name))
			if c, ok := store.Get(key); ok {
				return done(c), nil
			}
		}
		sys := gpu.NewShared(g, newScheme, faults)
		sys.SetShards(cfg.Shards)
		res, err := runKernels(ctx, sys, traces[t.workload], cfg.ScrubKernels)
		if err != nil {
			return simcache.Result{}, err
		}
		c := cacheable(res)
		if store != nil {
			// Best-effort: a full disk or read-only cache directory must
			// not fail the sweep; Store.WriteFailures keeps it observable.
			_ = store.Put(key, c)
		}
		return done(c), nil
	}

	results := make([]simcache.Result, len(tasks))
	if workers := min(cfg.Parallelism, len(tasks)); workers <= 1 {
		for i, t := range tasks {
			if ctx.Err() != nil {
				break
			}
			results[i], _ = runTask(t)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					if ctx.Err() != nil {
						continue // drain the channel without starting work
					}
					results[i], _ = runTask(tasks[i])
				}
			}()
		}
	feed:
		for i := range tasks {
			select {
			case next <- i:
			case <-ctx.Done():
				break feed
			}
		}
		close(next)
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		// Every worker has drained; any Put a worker was interrupted before
		// finishing (or a previous crash stranded) is safe to sweep now.
		if store != nil {
			_, _ = store.RemoveTemps()
		}
		return nil, err
	}

	// Deterministic merge: rows in workload order, every scheme keyed by
	// its stable name, normalized against the workload's baseline task.
	rows := make([]Row, len(loads))
	for i, t := range tasks {
		res := cachedResult(results[i])
		row := &rows[t.workload]
		if t.scheme < 0 {
			row.Workload = loads[t.workload].Name
			row.Class = loads[t.workload].Class
			row.BaselineCycles = res.Cycles
			row.BaselineMPKI = res.MPKI()
			row.Normalized = map[string]float64{}
			row.MPKI = map[string]float64{}
			row.Disabled = map[string]int{}
			continue
		}
		// The baseline task of this workload precedes its scheme tasks.
		name := specs[t.scheme].Name
		row.Normalized[name] = float64(res.Cycles) / float64(row.BaselineCycles)
		row.MPKI[name] = res.MPKI()
		row.Disabled[name] = res.DisabledLines
	}
	return rows, nil
}

// RunOne runs a single workload × scheme pair at the given voltage and
// returns the raw result — the building block the examples use. It follows
// Run's kernel semantics: cfg.WarmupKernels unmeasured warmup kernels
// precede the measured one, each re-walking the workload's data structures
// in a fresh request order, with cfg.FaultClasses and cfg.ScrubKernels
// applied exactly as the sweep applies them to its LV tasks (a nominal
// 1.0-voltage run keeps the zero spec, matching the sweep's baseline).
// Cancelling ctx stops the run at the next kernel boundary and returns
// ctx.Err().
func RunOne(ctx context.Context, cfg Config, workloadName string, newScheme protection.Factory, voltage float64) (gpu.Result, error) {
	cfg = cfg.withDefaults()
	w, err := workload.ByName(workloadName)
	if err != nil {
		return gpu.Result{}, err
	}
	g := cfg.baseGPU()
	g.Voltage = voltage
	if voltage != 1.0 {
		if g.Classes, err = faultmodel.ParseClassSpec(cfg.FaultClasses); err != nil {
			return gpu.Result{}, err
		}
	}
	traces := w.TraceSet(g.CUs, cfg.RequestsPerCU, KernelSeeds(cfg.Seed, cfg.WarmupKernels))
	sys := gpu.New(g, newScheme)
	sys.SetShards(cfg.Shards)
	return runKernels(ctx, sys, traces, cfg.ScrubKernels)
}

// RunShared runs one fully prepared simulation: the caller supplies the
// complete gpu.Config (voltage, fault seed, and reference voltage already
// set), a pre-built shared fault population, and pre-generated traces, and
// gets the raw result back. This is the campaign building block: a fleet
// run executes thousands of dies against one packed TraceSet per workload
// and one fault Map per die (resolved once per grid voltage), so the
// per-simulation work here is exactly the kernel loop — the same sharing
// discipline the sweep established in Run. The result is bit-identical to
// RunOne with the equivalent configuration (pinned by
// TestRunSharedMatchesRunOne). Cancelling ctx stops at the next kernel
// boundary and returns ctx.Err().
func RunShared(ctx context.Context, g gpu.Config, newScheme protection.Factory, faults *gpu.SharedFaults, traces *workload.TraceSet, shards int) (gpu.Result, error) {
	sys := gpu.NewShared(g, newScheme, faults)
	sys.SetShards(shards)
	return runKernels(ctx, sys, traces, 0)
}

// RunOneNamed is RunOne with the scheme given by its SchemeSyntax name and,
// when cfg.CacheDir is set, the content-addressed result cache consulted
// first. The cache key is the same per-task description the sweep uses, so
// a completed sweep warms identical single runs and vice versa — this is
// the fast path behind killi-simd's warm (cache-hit) requests. Cached
// results carry no debug Counters, exactly as in Run.
func RunOneNamed(ctx context.Context, cfg Config, workloadName, schemeName string, voltage float64) (gpu.Result, error) {
	cfg = cfg.withDefaults()
	newScheme, err := SchemeFactoryByName(schemeName)
	if err != nil {
		return gpu.Result{}, err
	}
	if cfg.CacheDir == "" {
		return RunOne(ctx, cfg, workloadName, newScheme, voltage)
	}
	if _, err := workload.ByName(workloadName); err != nil {
		return gpu.Result{}, err
	}
	store, err := simcache.Open(cfg.CacheDir)
	if err != nil {
		return gpu.Result{}, err
	}
	g := cfg.baseGPU()
	g.Voltage = voltage
	if voltage != 1.0 {
		// Mirror RunOne: the class spec is part of the simulated machine,
		// so it must be part of the cache key.
		if g.Classes, err = faultmodel.ParseClassSpec(cfg.FaultClasses); err != nil {
			return gpu.Result{}, err
		}
	}
	key := simcache.Key(taskDesc(cfg, g, schemeName, workloadName))
	if c, ok := store.Get(key); ok {
		return cachedResult(c), nil
	}
	res, err := RunOne(ctx, cfg, workloadName, newScheme, voltage)
	if err != nil {
		return gpu.Result{}, err
	}
	// Best-effort, as in Run: a failed Put must not fail the simulation.
	_ = store.Put(key, cacheable(res))
	return res, nil
}

// RunOneObserved is RunOne with an observability sink attached before the
// first kernel: o receives the initial DFH reset, every classification
// transition, and an epoch Sample every epochCycles cycles (0 means
// gpu.DefaultEpochCycles). The simulated machine is bit-identical to the
// unobserved RunOne — sampling only reads state — so the returned Result
// matches RunOne exactly (pinned by TestGoldenCounterDigestObserved).
func RunOneObserved(ctx context.Context, cfg Config, workloadName string, newScheme protection.Factory, voltage float64, o obs.Observer, epochCycles uint64) (gpu.Result, error) {
	cfg = cfg.withDefaults()
	w, err := workload.ByName(workloadName)
	if err != nil {
		return gpu.Result{}, err
	}
	g := cfg.baseGPU()
	g.Voltage = voltage
	if voltage != 1.0 {
		if g.Classes, err = faultmodel.ParseClassSpec(cfg.FaultClasses); err != nil {
			return gpu.Result{}, err
		}
	}
	traces := w.TraceSet(g.CUs, cfg.RequestsPerCU, KernelSeeds(cfg.Seed, cfg.WarmupKernels))
	sys := gpu.New(g, newScheme)
	sys.SetShards(cfg.Shards)
	sys.SetObserver(o, epochCycles)
	return runKernels(ctx, sys, traces, cfg.ScrubKernels)
}

// ValidateFlags rejects CLI knob combinations that would panic downstream
// or silently oversubscribe the machine, with one-line errors killi-sim
// and killi-simd print verbatim. maxProcs is the GOMAXPROCS budget
// (parameterized for tests). parallel follows the Config.Parallelism
// convention: -1 auto-budgets GOMAXPROCS/shards, positive is an explicit
// worker count; 0 and other negatives are rejected as ambiguous. An
// explicit parallel × shards product more than 8× over maxProcs is a
// configuration mistake (each unit is a busy goroutine), not a tuning
// choice, and is rejected rather than thrashed on.
func ValidateFlags(requests, parallel, shards, maxProcs int) error {
	if requests <= 0 {
		return fmt.Errorf("-requests must be a positive per-CU trace length, got %d", requests)
	}
	if shards < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d", shards)
	}
	if parallel == 0 || parallel < -1 {
		return fmt.Errorf("-parallel must be -1 (auto: GOMAXPROCS/shards) or a positive worker count, got %d", parallel)
	}
	if parallel > 0 && maxProcs > 0 && parallel*shards > 8*maxProcs {
		return fmt.Errorf("-parallel %d x -shards %d = %d concurrent workers oversubscribes GOMAXPROCS=%d by more than 8x; lower one or use -parallel -1 to auto-budget",
			parallel, shards, parallel*shards, maxProcs)
	}
	return nil
}
