// Package campaign runs fleet-scale Monte Carlo fault-map campaigns: N
// simulated dies — each a distinct fault population sampled from a per-die
// seed stream — crossed with a voltage grid, a protection scheme list, and
// a fault-class axis (persistent or mixed non-persistent populations, see
// faultmodel.ClassSyntax), executed through the sharded simulation engine
// and aggregated streamingly.
//
// The paper evaluates each scheme against a single sampled fault map per
// voltage; a fleet deployment decision needs the distribution across device
// instances (dpcs draws N=10,000 maps per config; HARP and the Patel thesis
// make the same argument for profiling-based mitigation). A campaign
// produces exactly that: per-(scheme, voltage) yield with Wilson confidence
// intervals, normalized-execution-time moments and quantiles, and per-die
// Vmin CDFs — the distributional version of the paper's Figure 6.
//
// Shared state is resolved once, the discipline the sweep established: one
// packed TraceSet per workload serves every die, one fault Map per die
// serves every (scheme, voltage) cell through per-voltage Resolved views,
// and per-die fault seeds come from faultmodel.DieSeed so the streams are
// pairwise independent and stable across hosts.
//
// Aggregation is streaming and bounded: online Welford moments and P²
// quantile sketches per cell, fed in canonical die order through
// internal/pool's bounded reorder window, so memory stays O(window + cells)
// at any N and a campaign with a fixed seed is bit-reproducible at any
// parallelism or shard count.
package campaign

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"killi/internal/experiments"
	"killi/internal/faultmodel"
	"killi/internal/gpu"
	"killi/internal/pool"
	"killi/internal/simcache"
	"killi/internal/workload"
)

// defaultVoltages is the grid a campaign sweeps when none is given: the
// paper's operating points from the MS-ECC floor (0.575×VDD) up to the
// fault-negligible region (0.700×VDD) in 25 mV steps.
func defaultVoltages() []float64 {
	return []float64{0.575, 0.600, 0.625, 0.650, 0.675, 0.700}
}

// DefaultPassThreshold is the yield criterion: a die passes a cell when its
// execution time stays within 10% of its own fault-free nominal-voltage
// baseline. The paper's Figure 4 shows Killi within ~1% at 0.625×VDD, so
// 1.10 separates "deployable" from "crippled by disable/correction traffic"
// with a wide margin on both sides.
const DefaultPassThreshold = 1.10

// windowPerWorker sizes the reorder buffer between out-of-order die
// completion and in-order aggregation, in dies per worker. Memory grows with
// the window, never with Dies.
const windowPerWorker = 4

// simFunc evaluates one cell; tests substitute a stub so the aggregation
// pipeline can be driven with 10k+ synthetic dies in milliseconds. The
// default is experiments.Cell.Eval.
type simFunc func(ctx context.Context, c experiments.Cell, store *simcache.Store, s experiments.Sim) (gpu.Result, bool, error)

// Config parameterizes a campaign.
type Config struct {
	// Workloads are the trace generators to campaign over (default
	// {"xsbench"} — a fleet campaign over the full catalog is a deliberate
	// choice, not a default).
	Workloads []string
	// Schemes lists the protection schemes by SchemeSyntax name (default
	// {"killi-1:64", "msecc"}).
	Schemes []string
	// FaultClasses lists fault-class specs (faultmodel.ClassSyntax) as a
	// campaign axis: every (workload, scheme, voltage) cell is run once per
	// class mix. Default {"persistent"} — the paper's model, and the value
	// under which results are bit-identical to a campaign predating the
	// axis. Each die's fault-free nominal baseline always runs the zero
	// spec regardless of this list.
	FaultClasses []string
	// Voltages is the LV grid, any order; Run sorts it ascending. Default
	// defaultVoltages. Every die's fault map is sampled at the grid minimum
	// (the map's reference voltage) and resolved per grid point.
	Voltages []float64
	// Dies is the number of Monte Carlo device instances (required, >= 1).
	Dies int
	// Seed is the campaign seed: it drives trace generation (shared by all
	// dies) and the per-die fault-seed stream (faultmodel.DieSeed). Default 1.
	Seed uint64
	// RequestsPerCU is the trace length per compute unit (default 2000 —
	// shorter than the sweep's 4000: a campaign buys its statistical power
	// from die count, not trace length).
	RequestsPerCU int
	// WarmupKernels precede each measured kernel, as in experiments.Config.
	WarmupKernels int
	// Parallelism bounds concurrently simulating dies. 0 or 1 is serial;
	// negative auto-budgets GOMAXPROCS/Shards. Results are bit-identical at
	// every value: dies are aggregated in die order regardless of
	// completion order.
	Parallelism int
	// Shards is the intra-simulation shard count (bit-identical at any
	// value; 0 = 1).
	Shards int
	// GPU overrides the base GPU configuration (nil = Table 3). Voltage,
	// FaultSeed, and RefVoltage are owned by the campaign and overwritten.
	GPU *gpu.Config
	// PassThreshold is the normalized-execution-time yield criterion
	// (default DefaultPassThreshold).
	PassThreshold float64
	// CacheDir, when non-empty, enables the content-addressed result cache
	// (internal/simcache) at two grains: a whole-die record keyed by the
	// campaign axes plus the die index (a warm identical re-run is one read
	// per die, no fault-map build), and the per-cell entries the sweep path
	// already uses (a campaign sharing a (seed, die, workload, scheme,
	// classes) prefix with a prior one — say, new grid voltages — only
	// simulates the new cells). Cached records are bit-identical to
	// recomputed ones; corrupted or stale entries are recomputed silently.
	CacheDir string
	// CheckpointDir, when non-empty, appends each die's record to a
	// checkpoint file in that directory as the die is aggregated, named by
	// the campaign's axes digest. With Resume, Run first replays the
	// checkpoint's valid prefix through the aggregator (truncating any torn
	// tail from a killed run) and only dispatches the remaining dies — so
	// an interrupted campaign restarts where it died with bit-identical
	// final output.
	CheckpointDir string
	// Resume replays an existing checkpoint before dispatching. It is a
	// no-op without CheckpointDir at the campaign layer; killi-fleet
	// rejects that combination up front.
	Resume bool
	// Progress, when non-nil, is called after each die is aggregated.
	// Calls happen in die order on the aggregating goroutine, so the
	// callback needs no locking of its own.
	Progress func(ProgressInfo)

	// runSim substitutes the cell evaluator in tests (nil =
	// experiments.Cell.Eval).
	runSim simFunc
	// dieFaults substitutes the per-die fault-population builder in tests
	// (nil = buildDieFaults): stub runs must not pay for — or be limited
	// by — 32K-line fault maps they never read.
	dieFaults func(g gpu.Config, voltages []float64) (at []*gpu.SharedFaults, nominal *gpu.SharedFaults)
}

// ProgressInfo is one progress callback's payload. Counts are cumulative:
// Done dies have been aggregated so far, of which Cached were served whole
// from the die-record cache and Resumed were replayed from a checkpoint.
type ProgressInfo struct {
	Done    int
	Total   int
	Cached  int
	Resumed int
}

// buildDieFaults samples one die's fault population at the grid minimum
// (g.Voltage must equal voltages[0] == g.RefVoltage) and returns read-only
// views resolved at every grid point plus the fault-free nominal point —
// one map per die serving every (workload, scheme, voltage) cell.
func buildDieFaults(g gpu.Config, voltages []float64) ([]*gpu.SharedFaults, *gpu.SharedFaults) {
	shared := gpu.BuildSharedFaults(g)
	at := make([]*gpu.SharedFaults, len(voltages))
	at[0] = shared
	for vi := 1; vi < len(voltages); vi++ {
		at[vi] = &gpu.SharedFaults{Map: shared.Map, Resolved: shared.Map.Resolve(voltages[vi])}
	}
	nominal := &gpu.SharedFaults{Map: shared.Map, Resolved: shared.Map.Resolve(1.0)}
	return at, nominal
}

// Normalized returns the config with every default made explicit, voltages
// sorted ascending, or a one-line validation error. It is exported so the
// simserver job layer normalizes campaign jobs exactly as Run will execute
// them (identical jobs written differently must coalesce identically).
func (c Config) Normalized() (Config, error) {
	if c.Dies < 1 {
		return c, fmt.Errorf("campaign: dies must be >= 1, got %d", c.Dies)
	}
	if len(c.Workloads) == 0 {
		c.Workloads = []string{"xsbench"}
	}
	if c.RequestsPerCU == 0 {
		c.RequestsPerCU = 2000
	}
	// Every cell is a single run: its workload, trace, seed and budget
	// pass the single runs' normalization.
	run, err := experiments.Config{Workloads: c.Workloads, Seed: c.Seed, RequestsPerCU: c.RequestsPerCU,
		WarmupKernels: c.WarmupKernels, Parallelism: c.Parallelism, Shards: c.Shards}.Normalized()
	if err != nil {
		return c, fmt.Errorf("campaign: %w", err)
	}
	c.Seed, c.Parallelism, c.Shards = run.Seed, run.Parallelism, run.Shards
	if len(c.Schemes) == 0 {
		c.Schemes = []string{"killi-1:64", "msecc"}
	}
	for _, name := range c.Schemes {
		if _, err := experiments.SchemeFactoryByName(name); err != nil {
			return c, err
		}
	}
	if len(c.FaultClasses) == 0 {
		c.FaultClasses = []string{"persistent"}
	}
	canon := make([]string, len(c.FaultClasses))
	seenClass := make(map[string]bool, len(c.FaultClasses))
	for i, s := range c.FaultClasses {
		spec, err := faultmodel.ParseClassSpec(s)
		if err != nil {
			return c, err
		}
		canon[i] = spec.String()
		if seenClass[canon[i]] {
			return c, fmt.Errorf("campaign: duplicate fault-class spec %q", canon[i])
		}
		seenClass[canon[i]] = true
	}
	c.FaultClasses = canon
	if len(c.Voltages) == 0 {
		c.Voltages = defaultVoltages()
	}
	c.Voltages = append([]float64(nil), c.Voltages...)
	sort.Float64s(c.Voltages)
	for i, v := range c.Voltages {
		if err := faultmodel.CheckVoltage(v); err != nil {
			return c, fmt.Errorf("campaign: %w", err)
		}
		if i > 0 && v == c.Voltages[i-1] {
			return c, fmt.Errorf("campaign: duplicate grid voltage %.3f", v)
		}
	}
	if c.PassThreshold == 0 {
		c.PassThreshold = DefaultPassThreshold
	}
	if !(c.PassThreshold > 1) || math.IsInf(c.PassThreshold, 1) {
		return c, fmt.Errorf("campaign: pass threshold must be a finite number above 1 (it bounds time normalized to the fault-free baseline), got %.3f", c.PassThreshold)
	}
	return c, nil
}

func (c Config) baseGPU() gpu.Config {
	if c.GPU != nil {
		return *c.GPU
	}
	return gpu.DefaultConfig()
}

// axesDesc canonically describes every campaign input that determines a
// single die's raw record — the normalized axes plus the base GPU config
// with the campaign-owned fields (Voltage, FaultSeed, RefVoltage, Classes)
// zeroed, since runDie overwrites them from the axes. Dies, PassThreshold,
// Parallelism and Shards are deliberately absent: they change how
// much is computed, or how it is scheduled and aggregated, never a die's
// outcome — which is exactly what lets a 10k-die campaign reuse the records
// of an earlier 1k-die one, and a resumed run reuse a checkpoint regardless
// of worker count. Call on a Normalized config only.
func (c Config) axesDesc() string {
	g := c.baseGPU()
	g.Voltage, g.FaultSeed, g.RefVoltage = 0, 0, 0
	g.Classes = faultmodel.ClassSpec{}
	var b strings.Builder
	fmt.Fprintf(&b, "campaign-die\ngpu=%#v\nseed=%d\nrequests=%d\nwarmup=%d\n",
		g, c.Seed, c.RequestsPerCU, c.WarmupKernels)
	fmt.Fprintf(&b, "workloads=%s\nschemes=%s\nclasses=%s\nvoltages=",
		strings.Join(c.Workloads, ","), strings.Join(c.Schemes, ","), strings.Join(c.FaultClasses, ";"))
	for i, v := range c.Voltages {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%.17g", v)
	}
	return b.String()
}

// dieKey is the simcache content address of one die's whole record.
func (c Config) dieKey(die int) string {
	return simcache.Key(fmt.Sprintf("%s\ndie=%d", c.axesDesc(), die))
}

// dieRecord is one die's complete raw outcome — the fault-free baseline per
// workload plus one sample per (workload, scheme, class, voltage) cell, in
// the form the die cache and the checkpoint journal store — and how it was
// obtained. Records are small (a few scalars per cell), which is what keeps
// the reorder window cheap.
type dieRecord struct {
	simcache.DieRecord

	// Provenance, never serialized: the aggregator folds these into the
	// Result's execution counters.
	cached   bool // served whole from the die-record cache
	resumed  bool // replayed from a checkpoint
	cellHits int  // per-cell cache hits while computing this record
}

// cellIndex flattens (workload, scheme, class, voltage) with voltage
// fastest, the order every output walks.
func cellIndex(cfg *Config, wi, si, ki, vi int) int {
	return ((wi*len(cfg.Schemes)+si)*len(cfg.FaultClasses)+ki)*len(cfg.Voltages) + vi
}

// vminIndex flattens (workload, scheme, class): one Vmin distribution per
// class mix, since a non-persistent population shifts the deployable floor.
func vminIndex(cfg *Config, wi, si, ki int) int {
	return (wi*len(cfg.Schemes)+si)*len(cfg.FaultClasses) + ki
}

// Run executes the campaign. Dies simulate concurrently up to
// cfg.Parallelism; aggregation consumes records strictly in die order
// through a reorder window of windowPerWorker × cfg.Parallelism records, so
// the returned Result is bit-identical at any parallelism and memory stays
// bounded at any die count. Cancelling ctx stops in-flight simulations at
// their next kernel boundary and returns ctx.Err().
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	base := cfg.baseGPU()

	// Shared read-only state, resolved once for the whole fleet.
	seeds := experiments.KernelSeeds(cfg.Seed, cfg.WarmupKernels)
	traces := make([]*workload.TraceSet, len(cfg.Workloads))
	for i, name := range cfg.Workloads {
		w, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		traces[i] = w.TraceSet(base.CUs, cfg.RequestsPerCU, seeds)
	}
	eval := cfg.runSim
	if eval == nil {
		eval = func(ctx context.Context, c experiments.Cell, store *simcache.Store, s experiments.Sim) (gpu.Result, bool, error) {
			return c.Eval(ctx, store, s)
		}
	}
	dieFaults := cfg.dieFaults
	if dieFaults == nil {
		dieFaults = buildDieFaults
	}

	classSpecs := make([]faultmodel.ClassSpec, len(cfg.FaultClasses))
	for i, s := range cfg.FaultClasses {
		if classSpecs[i], err = faultmodel.ParseClassSpec(s); err != nil {
			return nil, err // unreachable: Normalized canonicalized the list
		}
	}

	var store *simcache.Store
	if cfg.CacheDir != "" {
		if store, err = simcache.Open(cfg.CacheDir); err != nil {
			return nil, err
		}
	}

	refV := cfg.Voltages[0]
	cells := len(cfg.Workloads) * len(cfg.Schemes) * len(cfg.FaultClasses) * len(cfg.Voltages)
	runDie := func(die int) (*dieRecord, error) {
		var dieKey string
		if store != nil {
			// Whole-die fast path: an identical campaign already evaluated
			// this die. The shape check rejects a record written under
			// different axes that collided (impossible short of a SHA-256
			// break, but cheap to verify).
			dieKey = cfg.dieKey(die)
			if c, ok := store.GetDie(dieKey); ok && c.Die == die && c.Shaped(len(cfg.Workloads), cells) {
				return &dieRecord{DieRecord: c, cached: true}, nil
			}
		}
		rec := &dieRecord{DieRecord: simcache.DieRecord{
			Die:          die,
			Base:         make([]uint64, len(cfg.Workloads)),
			Cycles:       make([]uint64, cells),
			MPKI:         make([]float64, cells),
			Disabled:     make([]int32, cells),
			SDC:          make([]uint64, cells),
			FalseDisable: make([]int32, cells),
			FalseTrust:   make([]int32, cells),
		}}
		g := base
		g.FaultSeed = faultmodel.DieSeed(cfg.Seed, die)
		g.RefVoltage = refV

		// One fault population per die, resolved once per operating point
		// and shared across every workload × scheme at that point — built
		// lazily, so a die whose every cell is served from the per-cell
		// cache (a prefix-sharing campaign) never pays for the map.
		gRef := g
		gRef.Voltage = refV
		var faultsAt []*gpu.SharedFaults
		var faultsNominal *gpu.SharedFaults
		// simCell is one cell through Eval and the per-cell cache, at grid
		// point vi (-1: nominal). The key space is experiments.Cell's — the
		// same population the sweep, killi-sim and the daemon use — so a
		// campaign sharing a (seed, die, workload, scheme, classes) prefix
		// with any earlier run only simulates new cells.
		simCell := func(g gpu.Config, schemeName string, wi, vi int) (gpu.Result, error) {
			faults := func() *gpu.SharedFaults {
				if faultsAt == nil {
					faultsAt, faultsNominal = dieFaults(gRef, cfg.Voltages)
				}
				if vi < 0 {
					return faultsNominal
				}
				return faultsAt[vi]
			}
			c := experiments.Cell{GPU: g, Scheme: schemeName, Workload: cfg.Workloads[wi], Seed: cfg.Seed,
				Requests: cfg.RequestsPerCU, Warmup: cfg.WarmupKernels}
			res, hit, err := eval(ctx, c, store, experiments.Sim{Faults: faults, Traces: traces[wi], Shards: cfg.Shards})
			if hit {
				rec.cellHits++
			}
			return res, err
		}

		for wi := range cfg.Workloads {
			// The die's own fault-free nominal baseline: replacement and
			// soft-error RNG streams derive from the die seed, so baselines
			// differ (slightly) per die and each die normalizes against
			// itself, as a real binned part would. The baseline always runs
			// the zero class spec: strikes and blinking faults are LV
			// phenomena being measured, not part of the yardstick.
			g.Voltage = 1.0
			g.Classes = faultmodel.ClassSpec{}
			res, err := simCell(g, "none", wi, -1)
			if err != nil {
				return nil, err
			}
			rec.Base[wi] = res.Cycles
			for si := range cfg.Schemes {
				for ki := range classSpecs {
					g.Classes = classSpecs[ki]
					for vi, v := range cfg.Voltages {
						g.Voltage = v
						res, err := simCell(g, cfg.Schemes[si], wi, vi)
						if err != nil {
							return nil, err
						}
						ci := cellIndex(&cfg, wi, si, ki, vi)
						rec.Cycles[ci] = res.Cycles
						rec.MPKI[ci] = res.MPKI()
						rec.Disabled[ci] = int32(res.DisabledLines)
						rec.SDC[ci] = res.SDC
						if res.HasMisclass {
							rec.FalseDisable[ci] = int32(res.Misclass.FalseDisable)
							rec.FalseTrust[ci] = int32(res.Misclass.FalseTrust)
						}
					}
				}
			}
		}
		if store != nil {
			_ = store.PutDie(dieKey, rec.DieRecord) // best-effort
		}
		return rec, nil
	}

	agg := newAggregator(&cfg)
	start := time.Now()

	// fail funnels every error exit: by the time it runs no worker is
	// mid-Put (pool.Ordered only returns after its workers drain), so
	// sweeping stranded cache temp files is safe.
	var ckpt *checkpoint
	fail := func(err error) (*Result, error) {
		if ckpt != nil {
			ckpt.close()
		}
		if store != nil {
			_, _ = store.RemoveTemps()
		}
		return nil, err
	}

	// deliver is the single in-order aggregation point: every record —
	// resumed, cached, or computed — passes through here exactly once, in
	// die order, on one goroutine.
	deliver := func(_ int, rec *dieRecord) error {
		agg.consume(rec)
		if ckpt != nil && !rec.resumed {
			if err := ckpt.append(cfg.dieKey(rec.Die), rec.DieRecord); err != nil {
				return err
			}
		}
		if cfg.Progress != nil {
			cfg.Progress(ProgressInfo{Done: agg.done, Total: cfg.Dies, Cached: agg.cachedDies, Resumed: agg.resumedDies})
		}
		return nil
	}

	firstDie := 0
	if cfg.CheckpointDir != "" {
		var replay []simcache.DieRecord
		ckpt, replay, err = openCheckpoint(&cfg, cells)
		if err != nil {
			return fail(err)
		}
		for _, c := range replay {
			if c.Die >= cfg.Dies {
				break // a longer prior campaign checkpointed more dies than this one needs
			}
			if err := deliver(c.Die, &dieRecord{DieRecord: c, resumed: true}); err != nil {
				return fail(err)
			}
		}
		firstDie = agg.done
	}

	if err := pool.Ordered(ctx, firstDie, cfg.Dies, cfg.Parallelism, windowPerWorker*cfg.Parallelism, runDie, deliver); err != nil {
		return fail(err)
	}

	if ckpt != nil {
		if err := ckpt.close(); err != nil {
			return nil, err
		}
	}
	res := agg.finalize()
	res.ElapsedSeconds = time.Since(start).Seconds()
	if res.ElapsedSeconds > 0 {
		res.DiesPerSecond = float64(cfg.Dies) / res.ElapsedSeconds
	}
	return res, nil
}

// cellAgg is the streaming state of one (workload, scheme, class, voltage)
// cell.
type cellAgg struct {
	norm     welford
	mpki     welford
	disabled welford
	sdc      welford
	fdis     welford
	ftru     welford
	q50      *p2
	q90      *p2
	q99      *p2
	pass     int64
}

// vminAgg is the streaming state of one (workload, scheme, class) Vmin
// distribution: counts over the (small, fixed) grid plus a moment
// accumulator over passing dies. The grid makes the CDF exact — no sketch
// needed.
type vminAgg struct {
	counts []int64 // per grid index
	fails  int64   // dies failing even at the grid maximum
	mean   welford
}

type aggregator struct {
	cfg   *Config
	cells []cellAgg
	vmin  []vminAgg
	base  []welford // per workload: baseline cycles across dies

	// Execution provenance counters, folded in by consume; they describe
	// how records were obtained, never what they contain.
	done        int
	cachedDies  int
	resumedDies int
	cellHits    int64
}

func newAggregator(cfg *Config) *aggregator {
	a := &aggregator{
		cfg:   cfg,
		cells: make([]cellAgg, len(cfg.Workloads)*len(cfg.Schemes)*len(cfg.FaultClasses)*len(cfg.Voltages)),
		vmin:  make([]vminAgg, len(cfg.Workloads)*len(cfg.Schemes)*len(cfg.FaultClasses)),
		base:  make([]welford, len(cfg.Workloads)),
	}
	for i := range a.cells {
		a.cells[i].q50 = newP2(0.50)
		a.cells[i].q90 = newP2(0.90)
		a.cells[i].q99 = newP2(0.99)
	}
	for i := range a.vmin {
		a.vmin[i].counts = make([]int64, len(cfg.Voltages))
	}
	return a
}

// consume folds one die into every accumulator. Callers feed records in
// strict die order; this is what makes every floating-point aggregate a
// pure function of the campaign seed.
func (a *aggregator) consume(rec *dieRecord) {
	a.done++
	if rec.cached {
		a.cachedDies++
	}
	if rec.resumed {
		a.resumedDies++
	}
	a.cellHits += int64(rec.cellHits)
	cfg := a.cfg
	for wi := range cfg.Workloads {
		a.base[wi].add(float64(rec.Base[wi]))
		for si := range cfg.Schemes {
			for ki := range cfg.FaultClasses {
				// Vmin: the lowest grid voltage from which the die passes at
				// every higher grid point too (failures are monotone in
				// voltage; requiring a passing suffix keeps a fluke pass at
				// one low point from understating Vmin).
				vminIdx := len(cfg.Voltages)
				for vi := len(cfg.Voltages) - 1; vi >= 0; vi-- {
					ci := cellIndex(cfg, wi, si, ki, vi)
					c := &a.cells[ci]
					norm := float64(rec.Cycles[ci]) / float64(rec.Base[wi])
					c.norm.add(norm)
					c.mpki.add(rec.MPKI[ci])
					c.disabled.add(float64(rec.Disabled[ci]))
					c.sdc.add(float64(rec.SDC[ci]))
					c.fdis.add(float64(rec.FalseDisable[ci]))
					c.ftru.add(float64(rec.FalseTrust[ci]))
					c.q50.add(norm)
					c.q90.add(norm)
					c.q99.add(norm)
					if norm <= cfg.PassThreshold {
						c.pass++
						if vminIdx == vi+1 {
							vminIdx = vi
						}
					}
				}
				va := &a.vmin[vminIndex(cfg, wi, si, ki)]
				if vminIdx < len(cfg.Voltages) {
					va.counts[vminIdx]++
					va.mean.add(cfg.Voltages[vminIdx])
				} else {
					va.fails++
				}
			}
		}
	}
}

func (a *aggregator) finalize() *Result {
	cfg := a.cfg
	res := &Result{
		Dies:          cfg.Dies,
		Seed:          cfg.Seed,
		RequestsPerCU: cfg.RequestsPerCU,
		WarmupKernels: cfg.WarmupKernels,
		PassThreshold: cfg.PassThreshold,
		Workloads:     cfg.Workloads,
		Schemes:       cfg.Schemes,
		FaultClasses:  cfg.FaultClasses,
		Voltages:      cfg.Voltages,
		CachedDies:    a.cachedDies,
		ResumedDies:   a.resumedDies,
		CellCacheHits: a.cellHits,
	}
	for wi, w := range cfg.Workloads {
		res.Baselines = append(res.Baselines, Baseline{
			Workload:   w,
			CyclesMean: a.base[wi].mean,
			CyclesStd:  a.base[wi].std(),
		})
		for si, s := range cfg.Schemes {
			for ki, cls := range cfg.FaultClasses {
				for vi, v := range cfg.Voltages {
					c := &a.cells[cellIndex(cfg, wi, si, ki, vi)]
					lo, hi := wilson(c.pass, c.norm.n)
					res.Cells = append(res.Cells, Cell{
						Workload:         w,
						Scheme:           s,
						Classes:          cls,
						Voltage:          v,
						Dies:             c.norm.n,
						Yield:            float64(c.pass) / float64(c.norm.n),
						YieldLo:          lo,
						YieldHi:          hi,
						NormMean:         c.norm.mean,
						NormStd:          c.norm.std(),
						NormQ50:          c.q50.quantile(),
						NormQ90:          c.q90.quantile(),
						NormQ99:          c.q99.quantile(),
						MPKIMean:         c.mpki.mean,
						MPKIStd:          c.mpki.std(),
						DisabledMean:     c.disabled.mean,
						SDCMean:          c.sdc.mean,
						FalseDisableMean: c.fdis.mean,
						FalseTrustMean:   c.ftru.mean,
					})
				}
				va := &a.vmin[vminIndex(cfg, wi, si, ki)]
				cdf := VminCDF{
					Workload: w,
					Scheme:   s,
					Classes:  cls,
					FailFrac: float64(va.fails) / float64(cfg.Dies),
					MeanVmin: va.mean.mean, // 0 when no die passes anywhere
				}
				var cum int64
				for vi, v := range cfg.Voltages {
					cum += va.counts[vi]
					cdf.Points = append(cdf.Points, VminPoint{
						Voltage: v,
						Count:   va.counts[vi],
						CumFrac: float64(cum) / float64(cfg.Dies),
					})
				}
				res.Vmin = append(res.Vmin, cdf)
			}
		}
	}
	return res
}

// Baseline is one workload's fault-free nominal-voltage execution time
// across the fleet (dies differ through their seed-derived replacement
// RNG, so the baseline is a narrow distribution, not a constant).
type Baseline struct {
	Workload   string  `json:"workload"`
	CyclesMean float64 `json:"cycles_mean"`
	CyclesStd  float64 `json:"cycles_std"`
}

// Cell is the aggregated outcome of one (workload, scheme, class, voltage)
// grid point across every die.
type Cell struct {
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
	// Classes is the canonical fault-class spec the cell ran under
	// ("persistent" for the paper's model).
	Classes string  `json:"classes"`
	Voltage float64 `json:"voltage"`
	Dies    int64   `json:"dies"`
	// Yield is the fraction of dies passing the normalized-time criterion
	// at this point; [YieldLo, YieldHi] is its 95% Wilson interval.
	Yield   float64 `json:"yield"`
	YieldLo float64 `json:"yield_lo"`
	YieldHi float64 `json:"yield_hi"`
	// Norm* summarize execution time normalized to the die's own fault-free
	// baseline: Welford moments and P² quantile estimates.
	NormMean float64 `json:"norm_mean"`
	NormStd  float64 `json:"norm_std"`
	NormQ50  float64 `json:"norm_q50"`
	NormQ90  float64 `json:"norm_q90"`
	NormQ99  float64 `json:"norm_q99"`
	MPKIMean float64 `json:"mpki_mean"`
	MPKIStd  float64 `json:"mpki_std"`
	// DisabledMean is the mean count of L2 lines the scheme disabled.
	DisabledMean float64 `json:"disabled_mean"`
	// SDCMean is the mean silent-data-corruption count of the measured
	// kernel; nonzero only under non-persistent populations (or schemes
	// that under-protect). FalseDisableMean and FalseTrustMean are the
	// mean DFH-vs-ground-truth misclassification counts, zero for schemes
	// without DFH codes.
	SDCMean          float64 `json:"sdc_mean"`
	FalseDisableMean float64 `json:"false_disable_mean"`
	FalseTrustMean   float64 `json:"false_trust_mean"`
}

// VminPoint is one grid step of a Vmin CDF.
type VminPoint struct {
	Voltage float64 `json:"voltage"`
	// Count is the number of dies whose Vmin is exactly this grid voltage;
	// CumFrac is the fraction of all dies with Vmin <= it — the CDF value.
	Count   int64   `json:"count"`
	CumFrac float64 `json:"cum_frac"`
}

// VminCDF is the per-die minimum-deployable-voltage distribution of one
// (workload, scheme, class) triple: Vmin is the lowest grid voltage from
// which the die passes at every higher grid point too.
type VminCDF struct {
	Workload string      `json:"workload"`
	Scheme   string      `json:"scheme"`
	Classes  string      `json:"classes"`
	Points   []VminPoint `json:"points"`
	// FailFrac is the fraction of dies that fail even at the grid maximum
	// (their Vmin lies above the grid).
	FailFrac float64 `json:"fail_frac"`
	// MeanVmin averages Vmin over dies that pass somewhere on the grid
	// (0 when none do).
	MeanVmin float64 `json:"mean_vmin"`
}

// Result is a completed campaign.
type Result struct {
	Dies          int       `json:"dies"`
	Seed          uint64    `json:"seed"`
	RequestsPerCU int       `json:"requests_per_cu"`
	WarmupKernels int       `json:"warmup_kernels"`
	PassThreshold float64   `json:"pass_threshold"`
	Workloads     []string  `json:"workloads"`
	Schemes       []string  `json:"schemes"`
	FaultClasses  []string  `json:"fault_classes"`
	Voltages      []float64 `json:"voltages"`

	Baselines []Baseline `json:"baselines"`
	Cells     []Cell     `json:"cells"`
	Vmin      []VminCDF  `json:"vmin"`

	// ElapsedSeconds and DiesPerSecond describe the execution, not the
	// simulation: they vary by host and are excluded from every
	// determinism comparison. CachedDies, ResumedDies, and CellCacheHits
	// are the same class of metadata — how records were obtained (whole-die
	// cache hits, checkpoint replays, per-cell cache hits), which varies
	// with cache state while the aggregates do not; WriteJSONL zeroes all
	// five in its header so warm output stays byte-identical to cold.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	DiesPerSecond  float64 `json:"dies_per_second"`
	CachedDies     int     `json:"cached_dies,omitempty"`
	ResumedDies    int     `json:"resumed_dies,omitempty"`
	CellCacheHits  int64   `json:"cell_cache_hits,omitempty"`
}
