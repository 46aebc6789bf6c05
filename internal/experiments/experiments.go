// Package experiments assembles the paper's simulation-driven evaluation
// (Figures 4 and 5): workload × protection-scheme sweeps over the GPU
// model, with execution time normalized to the fault-free nominal-voltage
// baseline and L2 MPKI per configuration.
//
// The sweep fans out over internal/pool's ordered worker pool
// (Config.Parallelism): every workload × scheme simulation is an
// independent task with its own gpu.System and protection.Scheme, sharing
// only read-only traces, and results are folded into rows in task order,
// so every worker count produces bit-for-bit the same rows.
//
// The package is shared by cmd/killi-sim and the repository's benchmark
// harness so both print identical rows.
package experiments

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"killi/internal/faultmodel"
	"killi/internal/gpu"
	"killi/internal/killi"
	"killi/internal/obs"
	"killi/internal/pool"
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
	// task builds its own gpu.System and protection schemes and results
	// are folded in task order, so rows are bit-for-bit identical at any
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
	// the cumulative completed count and the total task count. It is
	// called in task order on one goroutine, so done rises by one per call
	// and the callback needs no locking of its own. It feeds killi-sim's
	// -metrics-addr live-progress endpoint and never affects results.
	Progress func(done, total int)
}

// Normalized returns the config with every default made explicit — voltage
// 0.625, 4,000 requests per CU, seed 1, the full workload catalog, and
// pool.Budget's worker and shard counts — and its class spec in canonical
// form ("" for persistent), or a one-line validation error: a voltage that
// fails faultmodel.CheckVoltage, a negative trace length, warmup or scrub
// count, a class spec that does not parse, or an unknown workload.
// Normalizing twice equals normalizing once. It is the sweep and single-run
// twin of campaign.Config.Normalized: Run and every single-run entry point
// call it, and simserver normalizes run and sweep jobs through it, so a job
// and a direct call with the same inputs mean the same simulation.
func (c Config) Normalized() (Config, error) {
	if c.Voltage == 0 {
		c.Voltage = 0.625
	}
	if c.RequestsPerCU == 0 {
		c.RequestsPerCU = 4000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if err := faultmodel.CheckVoltage(c.Voltage); err != nil {
		return c, err
	}
	switch {
	case c.RequestsPerCU < 0:
		return c, fmt.Errorf("requests per CU must be positive, got %d", c.RequestsPerCU)
	case c.WarmupKernels < 0:
		return c, fmt.Errorf("warmup kernels must be >= 0, got %d", c.WarmupKernels)
	case c.ScrubKernels < 0:
		return c, fmt.Errorf("scrub kernels must be >= 0, got %d", c.ScrubKernels)
	}
	spec, err := faultmodel.ParseClassSpec(c.FaultClasses)
	if err != nil {
		return c, err
	}
	c.FaultClasses = ""
	if !spec.IsZero() {
		c.FaultClasses = spec.String()
	}
	catalog := workload.Catalog()
	if len(c.Workloads) == 0 {
		for _, w := range catalog {
			c.Workloads = append(c.Workloads, w.Name)
		}
	}
	for _, name := range c.Workloads {
		if !slices.ContainsFunc(catalog, func(w workload.Workload) bool { return w.Name == name }) {
			return c, fmt.Errorf("unknown workload %q", name)
		}
	}
	c.Parallelism, c.Shards = pool.Budget(c.Parallelism, c.Shards)
	return c, nil
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

// simulate is the one simulation step every entry point shares: it builds
// the System over faults (nil samples a private population from g, as
// gpu.New does), sets its shard count, attaches o (when non-nil) before the
// first kernel, drives every warmup kernel and returns the measured (final)
// kernel's result. Cancellation is checked between kernels — one kernel is
// the unit of work the engine runs to completion, so that is the
// granularity at which an interrupted run stops. When scrubEvery is
// positive, the scheme's disabled-line scrubber runs after every
// scrubEvery-th kernel except the last, so the measured kernel sees the
// scrubber's steady-state reclaim/re-disable churn but never a scrub
// immediately before its own measurement.
func simulate(ctx context.Context, g gpu.Config, newScheme protection.Factory, faults *gpu.SharedFaults, traces *workload.TraceSet, shards, scrubEvery int, o obs.Observer, epochCycles uint64) (gpu.Result, error) {
	sys := gpu.NewShared(g, newScheme, faults)
	sys.SetShards(shards)
	if o != nil {
		sys.SetObserver(o, epochCycles)
	}
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
// stores; ResultFromCache inverts it.
func CacheableResult(res gpu.Result) simcache.Result {
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

// ResultFromCache rebuilds a gpu.Result from a cache entry. Counters stay
// nil: consumers of cached results use only the scalars.
func ResultFromCache(c simcache.Result) gpu.Result {
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

// Cached is the one cache-through step every cached entry point shares
// (the sweep's tasks, RunOneNamed and the campaign's per-cell path): it
// serves the entry at key() from store when there is a valid one and
// otherwise runs sim and stores its scalars. hit reports a cache hit; a
// hit's result carries no Counters. A nil store runs sim without hashing
// a key. The Put is best-effort — a full disk or read-only cache directory
// must not fail the simulation — and a failed Put is counted only in
// store.WriteFailures, which only the store's holder can read. Run,
// RunOneNamed and campaign.Run, and so every simserver job, open a Store
// per call and drop it, so nothing reads their failed-write counts.
func Cached(store *simcache.Store, key func() string, sim func() (gpu.Result, error)) (res gpu.Result, hit bool, err error) {
	if store == nil {
		res, err = sim()
		return res, false, err
	}
	k := key()
	if c, ok := store.Get(k); ok {
		return ResultFromCache(c), true, nil
	}
	if res, err = sim(); err != nil {
		return gpu.Result{}, false, err
	}
	_ = store.Put(k, CacheableResult(res))
	return res, false, nil
}

// Run executes the full sweep: for each workload, a fault-free baseline at
// nominal voltage plus every scheme at the LV operating point. The tasks
// run on pool.Ordered with cfg.Parallelism workers and are folded into
// rows in task order, so the output is identical at any parallelism.
//
// Cancelling ctx stops the sweep at the next kernel boundary of every
// in-flight task, drains the worker pool, removes any stranded simcache
// "put-*" temp files, and returns ctx.Err() — an interrupted sweep leaves
// no partial state behind (pinned by TestRunCancellation).
func Run(ctx context.Context, cfg Config) ([]Row, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	base := cfg.baseGPU()
	classes, err := faultmodel.ParseClassSpec(cfg.FaultClasses)
	if err != nil {
		return nil, err
	}

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
	gLV.Classes = classes
	faultsBase := gpu.BuildSharedFaults(gBase)
	faultsLV := gpu.BuildSharedFaults(gLV)

	// Every workload runs one task per column: the baseline first, then
	// each scheme at the LV point. The baseline keeps the zero ClassSpec:
	// it is the fault-free nominal reference, so not even transient
	// strikes touch it.
	type column struct {
		name      string
		newScheme protection.Factory
		g         gpu.Config
		faults    *gpu.SharedFaults
	}
	cols := []column{{"none", func() protection.Scheme { return protection.NewNone() }, gBase, faultsBase}}
	for _, spec := range Schemes() {
		cols = append(cols, column{spec.Name, spec.New, gLV, faultsLV})
	}

	var store *simcache.Store
	if cfg.CacheDir != "" {
		if store, err = simcache.Open(cfg.CacheDir); err != nil {
			return nil, err
		}
	}

	// Each task keeps only its scalar result, in the cache's shape whether
	// it was simulated or read back: a gpu.Result's Counters alias its
	// System, so retaining those until delivery would keep finished
	// simulations' arrays alive and make the sweep's memory grow with its
	// task count instead of its worker count.
	run := func(i int) (simcache.Result, error) {
		wi, c := i/len(cols), cols[i%len(cols)]
		res, _, err := Cached(store,
			func() string { return simcache.Key(taskDesc(cfg, c.g, c.name, loads[wi].Name)) },
			func() (gpu.Result, error) {
				return simulate(ctx, c.g, c.newScheme, c.faults, traces[wi], cfg.Shards, cfg.ScrubKernels, nil, 0)
			})
		return CacheableResult(res), err
	}

	// Rows fill in task order: a workload's baseline precedes the schemes
	// that normalize against it.
	n := len(loads) * len(cols)
	rows := make([]Row, len(loads))
	deliver := func(i int, c simcache.Result) error {
		res := ResultFromCache(c)
		wi, name := i/len(cols), cols[i%len(cols)].name
		row := &rows[wi]
		if i%len(cols) == 0 {
			*row = Row{
				Workload:       loads[wi].Name,
				Class:          loads[wi].Class,
				BaselineCycles: res.Cycles,
				BaselineMPKI:   res.MPKI(),
				Normalized:     map[string]float64{},
				MPKI:           map[string]float64{},
				Disabled:       map[string]int{},
			}
		} else {
			row.Normalized[name] = float64(res.Cycles) / float64(row.BaselineCycles)
			row.MPKI[name] = res.MPKI()
			row.Disabled[name] = res.DisabledLines
		}
		if cfg.Progress != nil {
			cfg.Progress(i+1, n)
		}
		return nil
	}
	// Results are scalars, so the window spans every task and no worker
	// ever waits for delivery.
	if err := pool.Ordered(ctx, 0, n, cfg.Parallelism, n, run, deliver); err != nil {
		// Ordered returns only once its workers have drained, so any Put an
		// interrupted task (or a previous crash) stranded is safe to sweep.
		if store != nil {
			_, _ = store.RemoveTemps()
		}
		return nil, err
	}
	return rows, nil
}

// prepare is the prologue every single-run entry point shares. It checks
// the explicit voltage with faultmodel.CheckVoltage — 0 is an error here,
// not the default it is in cfg.Voltage — normalizes cfg in place for one run
// of workloadName at that voltage, and resolves the run's inputs: the
// machine at voltage with its class spec, and a builder for the workload's
// kernel traces — deferred, so a cache hit never pays for a trace build.
// The class rule differs by caller and is pinned by
// TestNominalClassSpecRule: the RunOne family drops cfg.FaultClasses at
// exactly 1.0, since a nominal run is the sweep's fault-free baseline
// machine; RunMisclass sets classesAtNominal to apply the spec at every
// voltage, since its row measures the mix itself.
func (cfg *Config) prepare(workloadName string, voltage float64, classesAtNominal bool) (gpu.Config, func() *workload.TraceSet, error) {
	if err := faultmodel.CheckVoltage(voltage); err != nil {
		return gpu.Config{}, nil, err
	}
	cfg.Voltage, cfg.Workloads = voltage, []string{workloadName}
	var err error
	if *cfg, err = cfg.Normalized(); err != nil {
		return gpu.Config{}, nil, err
	}
	w, err := workload.ByName(workloadName)
	if err != nil {
		return gpu.Config{}, nil, err
	}
	g := cfg.baseGPU()
	g.Voltage = voltage
	if voltage != 1.0 || classesAtNominal {
		if g.Classes, err = faultmodel.ParseClassSpec(cfg.FaultClasses); err != nil {
			return gpu.Config{}, nil, err
		}
	}
	requests, seeds := cfg.RequestsPerCU, KernelSeeds(cfg.Seed, cfg.WarmupKernels)
	return g, func() *workload.TraceSet { return w.TraceSet(g.CUs, requests, seeds) }, nil
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
	return RunOneObserved(ctx, cfg, workloadName, newScheme, voltage, nil, 0)
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
	return simulate(ctx, g, newScheme, faults, traces, shards, 0, nil, 0)
}

// RunOneNamed is RunOne with the scheme given by its SchemeSyntax name and,
// when cfg.CacheDir is set, the content-addressed result cache consulted
// first. The cache key is the same per-task description the sweep uses, so
// a completed sweep warms identical single runs and vice versa — this is
// the fast path behind killi-simd's warm (cache-hit) requests. Cached
// results carry no debug Counters, exactly as in Run.
func RunOneNamed(ctx context.Context, cfg Config, workloadName, schemeName string, voltage float64) (gpu.Result, error) {
	newScheme, err := SchemeFactoryByName(schemeName)
	if err != nil {
		return gpu.Result{}, err
	}
	// g carries the class spec RunOne would simulate, so it is part of the
	// cache key.
	g, traces, err := cfg.prepare(workloadName, voltage, false)
	if err != nil {
		return gpu.Result{}, err
	}
	var store *simcache.Store
	if cfg.CacheDir != "" {
		if store, err = simcache.Open(cfg.CacheDir); err != nil {
			return gpu.Result{}, err
		}
	}
	res, _, err := Cached(store,
		func() string { return simcache.Key(taskDesc(cfg, g, schemeName, workloadName)) },
		func() (gpu.Result, error) {
			return simulate(ctx, g, newScheme, nil, traces(), cfg.Shards, cfg.ScrubKernels, nil, 0)
		})
	return res, err
}

// RunOneObserved is RunOne with an observability sink attached before the
// first kernel: o (when non-nil) receives the initial DFH reset, every
// classification transition, and an epoch Sample every epochCycles cycles
// (0 means gpu.DefaultEpochCycles). The simulated machine is bit-identical
// to the unobserved RunOne — sampling only reads state — so the returned
// Result matches RunOne exactly (pinned by TestGoldenCounterDigestObserved).
func RunOneObserved(ctx context.Context, cfg Config, workloadName string, newScheme protection.Factory, voltage float64, o obs.Observer, epochCycles uint64) (gpu.Result, error) {
	g, traces, err := cfg.prepare(workloadName, voltage, false)
	if err != nil {
		return gpu.Result{}, err
	}
	return simulate(ctx, g, newScheme, nil, traces(), cfg.Shards, cfg.ScrubKernels, o, epochCycles)
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
