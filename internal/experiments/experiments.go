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

	"killi/internal/ecc/olsc"
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
// MS-ECC, and Killi at each ECC cache ratio, each resolved once by
// SchemeFactoryByName.
func Schemes() []SchemeSpec {
	names := []string{"dected", "flair", "msecc"}
	for _, r := range KilliRatios {
		names = append(names, fmt.Sprintf("killi-1:%d", r))
	}
	specs := make([]SchemeSpec, len(names))
	for i, name := range names {
		f, err := SchemeFactoryByName(name)
		if err != nil {
			panic(err) // unreachable: every name is in the grammar
		}
		specs[i] = SchemeSpec{Name: name, New: f}
	}
	return specs
}

// SchemeFactoryByName parses a scheme name once and returns a factory
// building fresh instances of it — the form gpu.New consumes, since the
// sharded L2 attaches one scheme instance per bank. Names are "none",
// "secded", "dected", "flair", "msecc", or "killi-1:<ratio>" (optionally
// "killi-dected-1:<ratio>" for the §5.2 extension, or
// "killi-olsc<strength>-1:<ratio>" for the §5.5 low-Vmin mode). Parsing is
// strict: a malformed or trailing-garbage name is an error, never a guess.
func SchemeFactoryByName(name string) (protection.Factory, error) {
	switch name {
	case "none":
		return func() protection.Scheme { return protection.NewNone() }, nil
	case "secded":
		return func() protection.Scheme { return protection.NewSECDEDPerLine() }, nil
	case "dected":
		return func() protection.Scheme { return protection.NewDECTEDPerLine() }, nil
	case "flair":
		return func() protection.Scheme { return protection.NewFLAIR() }, nil
	case "msecc":
		return func() protection.Scheme { return protection.NewMSECC() }, nil
	}
	rest, ok := strings.CutPrefix(name, "killi-")
	if !ok {
		return nil, fmt.Errorf("experiments: unknown scheme %q", name)
	}
	var cfg killi.Config
	var err error
	if s, ok := strings.CutPrefix(rest, "dected-"); ok {
		cfg.UseDECTED = true
		cfg.Ratio, err = parseRatio(s)
	} else if s, ok := strings.CutPrefix(rest, "olsc"); ok {
		strengthStr, ratioStr, found := strings.Cut(s, "-")
		if !found {
			return nil, fmt.Errorf("experiments: bad scheme %q: want killi-olsc<strength>-1:<ratio>", name)
		}
		if cfg.OLSCStrength, ok = parseDecimal(strengthStr); !ok {
			return nil, fmt.Errorf("experiments: bad scheme %q: OLSC strength must be a positive integer with no sign or leading zero", name)
		}
		if err = olsc.CheckLine(cfg.OLSCStrength); err == nil {
			cfg.Ratio, err = parseRatio(ratioStr)
		}
	} else {
		cfg.Ratio, err = parseRatio(rest)
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: bad scheme %q: %v", name, err)
	}
	return func() protection.Scheme { return killi.New(cfg) }, nil
}

// parseRatio parses the "1:<ratio>" suffix of a Killi scheme name,
// rejecting anything but a positive integer ratio with no trailing bytes.
func parseRatio(s string) (int, error) {
	digits, ok := strings.CutPrefix(s, "1:")
	if !ok {
		return 0, fmt.Errorf("want an ECC cache ratio of the form 1:<n>, got %q", s)
	}
	n, ok := parseDecimal(digits)
	if !ok {
		return 0, fmt.Errorf("want a positive integer ECC cache ratio with no sign or leading zero, got %q", digits)
	}
	return n, nil
}

// parseDecimal parses a positive integer in its one canonical spelling:
// decimal digits with no sign and no leading zero. A scheme's name is its
// job, cache and campaign key, so "killi-1:064" must not build the scheme
// named "killi-1:64".
func parseDecimal(s string) (int, bool) {
	if s == "" || s[0] == '0' {
		return 0, false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
	}
	n, err := strconv.Atoi(s)
	return n, err == nil
}

// SchemeSyntax is the single source of truth for the scheme-name grammar
// accepted by SchemeFactoryByName. CLI -scheme flag help and README documentation
// must quote it verbatim (pinned by TestSchemeSyntaxSingleSource) instead of
// restating the forms by hand, so the documented grammar can never drift
// from the parser.
func SchemeSyntax() string {
	return "none | secded | dected | flair | msecc | killi-1:<ratio> | " +
		"killi-dected-1:<ratio> | killi-olsc<strength>-1:<ratio>"
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
	// Seed drives trace generation: kernel k's request order comes from
	// KernelSeeds(Seed, WarmupKernels)[k]. The fault population does not
	// depend on it; it comes from the GPU config's FaultSeed (Table 3
	// default 1).
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
	// keyed by its Cell's Key — a digest of its complete inputs — and
	// reused by later runs with identical inputs. Cached rows are bit-identical to
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
// twin of campaign.Config.Normalized: Run and Config.Cell call it, and
// simserver normalizes run and sweep jobs through it, so a job and a direct
// call with the same inputs mean the same simulation.
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
// be exactly the ones a Cell builds for itself when Eval runs it without
// shared traces, so the derivation is pinned by TestKernelSeedsGolden.
func KernelSeeds(seed uint64, warmups int) []uint64 {
	out := make([]uint64, warmups+1)
	for k := range out {
		out[k] = kernelSeed(seed, k)
	}
	return out
}

// Cell is one simulation's result-determining inputs: the machine (GPU,
// with its voltage and class spec set), the scheme by its SchemeSyntax
// name, the workload, the trace seed and length, the warmup kernels and
// the scrub cadence. The sweep's tasks, the campaign's cells and every
// single run are Cells, and Eval is the one call that evaluates them.
type Cell struct {
	GPU      gpu.Config
	Scheme   string
	Workload string
	Seed     uint64
	Requests int
	Warmup   int
	Scrub    int
}

// Key is the cell's simcache address, one key space for every caller: a
// fleet campaign warms the cache for later killi-sim runs and daemon jobs,
// and vice versa. The GPU config is rendered with %#v — it is deliberately
// a flat value type (no pointers, maps, or function fields), so the
// rendering is a stable, exhaustive serialization; any new config field
// automatically changes the key. The scheme name encodes its configuration
// (e.g. "killi-1:64").
func (c Cell) Key() string {
	return simcache.Key(fmt.Sprintf("gpu=%#v\nscheme=%s\nworkload=%s\nseed=%d\nrequests=%d\nwarmup=%d\nscrub=%d",
		c.GPU, c.Scheme, c.Workload, c.Seed, c.Requests, c.Warmup, c.Scrub))
}

// Sim is what a Cell simulates with when Eval runs it: state shared with
// other cells, and knobs that never change the result. Every field is
// optional.
type Sim struct {
	// NewScheme builds the scheme (nil: SchemeFactoryByName(Cell.Scheme)).
	NewScheme protection.Factory
	// Faults returns the fault population, resolved at the cell's voltage.
	// It is called only when the cell simulates, so a hit never pays for a
	// fault map (nil: the private population gpu.NewShared samples from
	// GPU.FaultSeed).
	Faults func() *gpu.SharedFaults
	// Traces are the workload's kernel traces (nil: built from the cell
	// when it simulates).
	Traces *workload.TraceSet
	// Shards is the intra-run shard count (gpu.System.SetShards).
	Shards int
	// Observer, when non-nil, is attached before the first kernel: it
	// receives the initial DFH reset, every classification transition, and
	// a Sample every EpochCycles cycles (0: gpu.DefaultEpochCycles).
	Observer    obs.Observer
	EpochCycles uint64
}

// Eval evaluates c. It serves a valid entry from store when there is one;
// otherwise it simulates c and stores its scalars. hit reports a cache
// hit, whose result carries no Counters. A nil store, or an attached
// observer, skips the store entirely: an observed run's value is its
// stream, and watching a run must never change the cache. The Put is
// best-effort — a full disk or read-only cache directory must not fail
// the simulation — and a failed Put is counted only in
// store.WriteFailures.
func (c Cell) Eval(ctx context.Context, store *simcache.Store, s Sim) (res gpu.Result, hit bool, err error) {
	if s.Observer != nil {
		store = nil
	}
	var key string
	if store != nil {
		key = c.Key()
		if r, ok := store.Get(key); ok {
			return ResultFromCache(r), true, nil
		}
	}
	if res, err = c.simulate(ctx, s); err == nil && store != nil {
		_ = store.Put(key, CacheableResult(res))
	}
	return res, false, err
}

// simulate builds the System, sets its shard count, attaches the observer,
// drives every warmup kernel and returns the measured (final) kernel's
// result with the end-of-run misclassification census. Cancellation is
// checked between kernels — one kernel is the unit of work the engine runs
// to completion, so that is the granularity at which an interrupted run
// stops. When c.Scrub is positive, the scheme's disabled-line scrubber runs
// after every c.Scrub-th kernel except the last, so the measured kernel
// sees the scrubber's steady-state reclaim/re-disable churn but never a
// scrub immediately before its own measurement.
//
// The returned Result carries a detached copy of the counters, so the
// System is released for the next simulation to recycle.
func (c Cell) simulate(ctx context.Context, s Sim) (gpu.Result, error) {
	newScheme, traces := s.NewScheme, s.Traces
	if newScheme == nil {
		var err error
		if newScheme, err = SchemeFactoryByName(c.Scheme); err != nil {
			return gpu.Result{}, err
		}
	}
	if traces == nil {
		w, err := workload.ByName(c.Workload)
		if err != nil {
			return gpu.Result{}, err
		}
		traces = w.TraceSet(c.GPU.CUs, c.Requests, KernelSeeds(c.Seed, c.Warmup))
	}
	var faults *gpu.SharedFaults
	if s.Faults != nil {
		faults = s.Faults()
	}
	sys := gpu.NewShared(c.GPU, newScheme, faults)
	defer sys.Release()
	sys.SetShards(s.Shards)
	if s.Observer != nil {
		sys.SetObserver(s.Observer, s.EpochCycles)
	}
	var res gpu.Result
	for k := 0; k < traces.Kernels(); k++ {
		if err := ctx.Err(); err != nil {
			return gpu.Result{}, err
		}
		if k+1 < traces.Kernels() {
			sys.RunKernel(traces.Kernel(k))
			if c.Scrub > 0 && (k+1)%c.Scrub == 0 {
				sys.Scrub()
			}
			continue
		}
		res = sys.Run(traces.Kernel(k))
	}
	res.Counters = res.Counters.Clone()
	return res, nil
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
	// 32K-line fault population each task would sample from the GPU
	// config's FaultSeed is built and voltage-resolved exactly once per
	// point and handed to every System read-only.
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
		scheme string
		g      gpu.Config
		faults *gpu.SharedFaults
	}
	cols := []column{{"none", gBase, faultsBase}}
	for _, spec := range Schemes() {
		cols = append(cols, column{spec.Name, gLV, faultsLV})
	}

	var store *simcache.Store
	if cfg.CacheDir != "" {
		if store, err = simcache.Open(cfg.CacheDir); err != nil {
			return nil, err
		}
	}

	// Each task keeps only its scalar result, in the cache's shape whether
	// it was simulated or read back: Eval's Result carries a copy of the
	// counters, not the System, but the scalars are all a row needs.
	run := func(i int) (simcache.Result, error) {
		wi, col := i/len(cols), cols[i%len(cols)]
		c := Cell{GPU: col.g, Scheme: col.scheme, Workload: loads[wi].Name, Seed: cfg.Seed,
			Requests: cfg.RequestsPerCU, Warmup: cfg.WarmupKernels, Scrub: cfg.ScrubKernels}
		res, _, err := c.Eval(ctx, store, Sim{Faults: func() *gpu.SharedFaults { return col.faults },
			Traces: traces[wi], Shards: cfg.Shards})
		return CacheableResult(res), err
	}

	// Rows fill in task order: a workload's baseline precedes the schemes
	// that normalize against it.
	n := len(loads) * len(cols)
	rows := make([]Row, len(loads))
	deliver := func(i int, c simcache.Result) error {
		res := ResultFromCache(c)
		wi, name := i/len(cols), cols[i%len(cols)].scheme
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

// Cell prepares one single run of workloadName × schemeName at voltage —
// the prologue of every single run, whose Eval is then the whole run. It
// checks the explicit voltage with faultmodel.CheckVoltage (0 is an error
// here, not the default it is in cfg.Voltage) and normalizes cfg for one
// run of the workload. A nominal 1.0 V cell keeps the zero class spec: it
// is the sweep's fault-free baseline machine. RunMisclass, whose row
// measures the mix itself, applies the spec at nominal too
// (TestNominalClassSpecRule pins both rules).
func (cfg Config) Cell(workloadName, schemeName string, voltage float64) (Cell, error) {
	if err := faultmodel.CheckVoltage(voltage); err != nil {
		return Cell{}, err
	}
	cfg.Voltage, cfg.Workloads = voltage, []string{workloadName}
	cfg, err := cfg.Normalized()
	if err != nil {
		return Cell{}, err
	}
	g := cfg.baseGPU()
	g.Voltage = voltage
	if voltage != 1.0 {
		if g.Classes, err = faultmodel.ParseClassSpec(cfg.FaultClasses); err != nil {
			return Cell{}, err
		}
	}
	return Cell{GPU: g, Scheme: schemeName, Workload: workloadName, Seed: cfg.Seed,
		Requests: cfg.RequestsPerCU, Warmup: cfg.WarmupKernels, Scrub: cfg.ScrubKernels}, nil
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
	// parallel > 8·maxProcs/shards is parallel·shards > 8·maxProcs for
	// integers, without a product that can wrap.
	if parallel > 0 && maxProcs > 0 && parallel > 8*maxProcs/shards {
		return fmt.Errorf("-parallel %d x -shards %d concurrent workers oversubscribe GOMAXPROCS=%d by more than 8x; lower one or use -parallel -1 to auto-budget",
			parallel, shards, maxProcs)
	}
	return nil
}
