package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"killi/internal/campaign"
	"killi/internal/experiments"
	"killi/internal/faultmodel"
	"killi/internal/gpu"
	"killi/internal/simcache"
	"killi/internal/workload"
)

// The fleet workload is the killi-fleet path: campaign.Run over D dies ×
// {xsbench (memory-bound), nekbone (compute-bound)} × {killi-1:64, msecc} ×
// the grid {0.600, 0.625, 0.650}, persistent faults, two workers. Three
// phases share one fresh cache directory:
//
//   - cold writes die records, per-cell entries and the checkpoint journal;
//   - warm re-runs the identical campaign, every die a whole-die cache hit;
//   - regrid extends the grid upward by 0.675 on a copy of the cold cache:
//     the reference voltage is unchanged, so every old cell hits and only
//     the new voltage simulates and writes.
const (
	fleetRequests = 1500
	fleetWorkers  = 2
	// fleetDiesPerSecond sizes the cold phase to about 40% of the run on a
	// 2-core host; the die count is fixed by -seconds, never by host speed,
	// so every commit simulates the same dies.
	fleetDiesPerSecond = 1.8
	regridVoltage      = 0.675
	streamFleet        = 1
)

var (
	fleetWorkloads = []string{"xsbench", "nekbone"}
	fleetSchemes   = []string{"killi-1:64", "msecc"}
	fleetGrid      = []float64{0.600, 0.625, 0.650}
)

func fleetDies(seconds float64) int { return max(4, int(seconds*fleetDiesPerSecond)) }

func fleetConfig(p params, dies int, grid []float64, cacheDir, journalDir string) campaign.Config {
	return campaign.Config{
		Workloads:     fleetWorkloads,
		Schemes:       fleetSchemes,
		Voltages:      grid,
		Dies:          dies,
		Seed:          subSeed(p.seed, streamFleet, 0),
		RequestsPerCU: fleetRequests,
		Parallelism:   fleetWorkers,
		CacheDir:      cacheDir,
		CheckpointDir: journalDir,
	}
}

func regridGrid() []float64 { return append(append([]float64(nil), fleetGrid...), regridVoltage) }

// setupFleet is what killi-fleet does before the campaign runs: normalize
// and validate the config, open the result cache and create the journal
// directory.
func setupFleet(p params) (func(), error) {
	dir := filepath.Join(p.dir, "setup")
	teardown := func() { _ = os.RemoveAll(dir) }
	cfg, err := fleetConfig(p, 1, fleetGrid, filepath.Join(dir, "cache"), filepath.Join(dir, "journal")).Normalized()
	if err != nil {
		return teardown, err
	}
	if _, err := simcache.Open(cfg.CacheDir); err != nil {
		return teardown, err
	}
	return teardown, os.MkdirAll(cfg.CheckpointDir, 0o755)
}

func jsonl(r *campaign.Result) string {
	var b bytes.Buffer
	_ = r.WriteJSONL(&b) // writes to a bytes.Buffer cannot fail
	return b.String()
}

// cellText renders every aggregated cell, keyed by its axes, with every
// float in its shortest exact form.
func cellText(r *campaign.Result) map[string]string {
	out := map[string]string{}
	for _, c := range r.Cells {
		out[fmt.Sprintf("%s/%s/%s/%.17g", c.Workload, c.Scheme, c.Classes, c.Voltage)] = fmt.Sprintf("%+v", c)
	}
	return out
}

// journalRecords counts the die records in the journal directory's
// checkpoint files (every line after each file's header).
func journalRecords(dir string) int {
	files, _ := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	n := 0
	for _, f := range files {
		buf, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		n += max(0, strings.Count(string(buf), "\n")-1)
	}
	return n
}

// checkWarm checks one warm pass: every die served from the die cache and
// the output byte-identical to the cold run's.
func checkWarm(o *outcome, res *campaign.Result, dies int, coldOut string) bool {
	return o.check(res.CachedDies == dies, "fleet: warm pass served %d of %d dies from the cache", res.CachedDies, dies) &&
		o.check(jsonl(res) == coldOut, "fleet: warm pass output differs from cold")
}

// checkFleet runs the output checks that hold for any seed: regrid's cell
// cache hits and old-voltage cells, and the journal's record count. checkWarm
// covers each warm pass.
func checkFleet(o *outcome, cold, regrid *campaign.Result, dies int, journalDir string) {
	w, s := len(fleetWorkloads), len(fleetSchemes)
	wantHits := int64(dies * w * (1 + s*len(fleetGrid)))
	o.check(regrid.CellCacheHits == wantHits, "fleet: regrid cell cache hits %d, want %d", regrid.CellCacheHits, wantHits)
	coldCells, regridCells := cellText(cold), cellText(regrid)
	for k, v := range coldCells {
		if !o.check(regridCells[k] == v, "fleet: regrid cell %s differs from cold", k) {
			break
		}
	}
	if journalDir != "" {
		o.check(journalRecords(journalDir) == dies, "fleet: journal holds %d records, want %d", journalRecords(journalDir), dies)
	}
}

func measureFleet(p params) (*outcome, error) {
	o := newOutcome()
	ctx := context.Background()
	setup, setups, err := medianSetup(func() (func(), error) { return setupFleet(p) })
	if err != nil {
		return nil, err
	}
	dies := fleetDies(p.seconds)
	cacheDir, journalDir := filepath.Join(p.dir, "cache"), filepath.Join(p.dir, "journal")

	// Cold: everything simulates and is written.
	cold, coldStamps, err := runStamped(ctx, fleetConfig(p, dies, fleetGrid, cacheDir, journalDir))
	o.op(err == nil)
	if err != nil {
		return nil, fmt.Errorf("cold campaign: %w", err)
	}
	coldOut := jsonl(cold)
	if p.seed == defaultSeed {
		dg := leadingDies(fleetConfig(p, dies, fleetGrid, cacheDir, ""))
		o.check(dg == pinnedFleetDigest, "fleet: leading die records digest %s differs from the pinned one", dg)
	}
	cacheBytes, journalBytes := dirBytes(cacheDir), dirBytes(journalDir)

	// Warm: identical re-runs over the cold cache for a fifth of the run.
	var warm []float64
	warmCfg := fleetConfig(p, dies, fleetGrid, cacheDir, "")
	for end := time.Now().Add(time.Duration(0.2 * p.seconds * float64(time.Second))); len(warm) < 5 || time.Now().Before(end); {
		var res *campaign.Result
		d := timed(func() { res, err = campaign.Run(ctx, warmCfg) })
		if err != nil {
			return nil, fmt.Errorf("warm campaign: %w", err)
		}
		o.op(checkWarm(o, res, dies, coldOut))
		warm = append(warm, float64(d)/1e6)
	}

	// Regrid: rounds over fresh copies of the cold cache until the run's
	// time is spent.
	var regridRates []float64
	var regrid *campaign.Result
	rounds := 0
	for end := time.Now().Add(time.Duration(0.35 * p.seconds * float64(time.Second))); rounds < 2 || time.Now().Before(end); rounds++ {
		dir := filepath.Join(p.dir, fmt.Sprintf("regrid-%d", rounds))
		if err := copyDir(cacheDir, dir); err != nil {
			return nil, err
		}
		var stamps []time.Duration
		regrid, stamps, err = runStamped(ctx, fleetConfig(p, dies, regridGrid(), dir, ""))
		o.op(err == nil)
		if err != nil {
			return nil, fmt.Errorf("regrid campaign: %w", err)
		}
		regridRates = append(regridRates, windowRates(stamps, rateWindow)...)
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	checkFleet(o, cold, regrid, dies, journalDir)

	coldRate, regridRate := median(windowRates(coldStamps, rateWindow)), median(regridRates)
	o.set("setup_s", "s", setup)
	o.note("setup ms %s", quartiles(scale(setups, 1000)))
	o.set("peak_rss_mb", "MB", peakRSSMB())
	o.set("rate_per_s", "1/s", coldRate)
	o.set("fast_ms", "ms", median(warm))
	o.set("slow_ms", "ms", 1000/regridRate)
	o.note("fleet: %d dies x %d workloads x %d schemes x %d voltages, %d req/CU, %d workers",
		dies, len(fleetWorkloads), len(fleetSchemes), len(fleetGrid), fleetRequests, fleetWorkers)
	o.note("fleet: cold_dies_per_s=%.4g (median over %d-die windows; %d dies, %d cells simulated, %d maps built, cache %d B, journal %d B)",
		coldRate, rateWindow, dies, dies*cellsPerDie(len(fleetGrid)), dies, cacheBytes, journalBytes)
	o.note("fleet: warm_pass_ms=%.4g (median of %d passes, %d die-cache hits each)", median(warm), len(warm), dies)
	o.note("fleet: quartiles: cold window rate %s, warm pass ms %s, regrid window rate %s",
		quartiles(windowRates(coldStamps, rateWindow)), quartiles(warm), quartiles(regridRates))
	o.note("fleet: regrid_dies_per_s=%.4g (median over %d-die windows of %d rounds; %d cell hits and %d cells simulated per round)",
		regridRate, rateWindow, rounds, regrid.CellCacheHits, dies*len(fleetWorkloads)*len(fleetSchemes))
	return o, nil
}

// rateWindow is the number of consecutive dies a throughput sample spans:
// two per worker, so in-order delivery does not alias the samples.
const rateWindow = 2 * fleetWorkers

// runStamped runs one campaign from a collected heap and returns the time
// each die was aggregated, measured from the call.
func runStamped(ctx context.Context, cfg campaign.Config) (*campaign.Result, []time.Duration, error) {
	var stamps []time.Duration
	var start time.Time
	cfg.Progress = func(campaign.ProgressInfo) { stamps = append(stamps, time.Since(start)) }
	runtime.GC()
	start = time.Now()
	res, err := campaign.Run(ctx, cfg)
	return res, stamps, err
}

// cellsPerDie is the simulations one cold die runs: a baseline per workload
// plus every (workload, scheme, voltage) cell.
func cellsPerDie(voltages int) int {
	return len(fleetWorkloads) * (1 + len(fleetSchemes)*voltages)
}

// dieKey is the simcache address campaign.Run stores die `die` under: the
// digest of the campaign's canonical axes description plus the die index.
// cfg must be normalized. The traced run proves the replica agrees with the
// program by reading the program's die records back through these keys.
func dieKey(cfg campaign.Config, die int) string {
	g := gpu.DefaultConfig()
	g.Voltage, g.FaultSeed, g.RefVoltage = 0, 0, 0
	g.Classes = faultmodel.ClassSpec{}
	var b strings.Builder
	fmt.Fprintf(&b, "campaign-die\ngpu=%#v\nseed=%d\nrequests=%d\nwarmup=%d\n",
		g, cfg.Seed, cfg.RequestsPerCU, cfg.WarmupKernels)
	fmt.Fprintf(&b, "workloads=%s\nschemes=%s\nclasses=%s\nvoltages=",
		strings.Join(cfg.Workloads, ","), strings.Join(cfg.Schemes, ","), strings.Join(cfg.FaultClasses, ";"))
	for i, v := range cfg.Voltages {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%.17g", v)
	}
	return simcache.Key(fmt.Sprintf("%s\ndie=%d", b.String(), die))
}

// fleetDigestDies is how many leading die records the pinned digest covers;
// a die's record does not depend on the campaign's die count.
const fleetDigestDies = 4

// leadingDies digests the first fleetDigestDies die records in cfg's cache.
func leadingDies(cfg campaign.Config) string {
	cfg, _ = cfg.Normalized()
	store, err := simcache.Open(cfg.CacheDir)
	if err != nil {
		return err.Error()
	}
	var b strings.Builder
	for d := 0; d < fleetDigestDies; d++ {
		rec, _ := store.GetDie(dieKey(cfg, d))
		b.WriteString(rec.Canonical() + "\n")
	}
	return digest(b.String())
}

// fleetReplica is campaign.Run's per-die work replayed serially through the
// public functions of each layer it calls, one span per call.
type fleetReplica struct {
	rec     *recorder
	cfg     campaign.Config // normalized
	store   *simcache.Store
	loads   []workload.Workload
	traces  []*workload.TraceSet
	classes []faultmodel.ClassSpec
	faults  int // faults active at the reference voltage, summed over maps
}

func newFleetReplica(rec *recorder, cfg campaign.Config, store *simcache.Store) (*fleetReplica, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	r := &fleetReplica{rec: rec, cfg: cfg, store: store}
	for _, s := range cfg.FaultClasses {
		spec, err := faultmodel.ParseClassSpec(s)
		if err != nil {
			return nil, err
		}
		r.classes = append(r.classes, spec)
	}
	for _, name := range cfg.Workloads {
		w, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		r.loads = append(r.loads, w)
	}
	return r, nil
}

// buildTraces is the shared state every campaign.Run builds first, even when
// every die is cached.
func (r *fleetReplica) buildTraces() {
	seeds := experiments.KernelSeeds(r.cfg.Seed, r.cfg.WarmupKernels)
	r.traces = r.traces[:0]
	for _, w := range r.loads {
		r.traces = append(r.traces, traceSet(r.rec, "fleet", w, gpu.DefaultConfig().CUs, r.cfg.RequestsPerCU, seeds))
	}
}

// die replays campaign.Run's runDie for one die and returns its record.
func (r *fleetReplica) die(ctx context.Context, die int) (simcache.DieRecord, error) {
	cfg := &r.cfg
	id := fmt.Sprintf("die-%d", die)
	top := r.rec.begin("campaign.die", id)
	defer r.rec.end(top)
	key := dieKey(*cfg, die)
	cells := len(cfg.Workloads) * len(cfg.Schemes) * len(cfg.FaultClasses) * len(cfg.Voltages)
	var cached simcache.DieRecord
	var ok bool
	r.rec.do("simcache.getdie", id, func() { cached, ok = r.store.GetDie(key) })
	if ok && cached.Die == die && cached.Shaped(len(cfg.Workloads), cells) {
		return cached, nil
	}
	rec := simcache.DieRecord{
		Die: die, Base: make([]uint64, len(cfg.Workloads)), Cycles: make([]uint64, cells),
		MPKI: make([]float64, cells), Disabled: make([]int32, cells), SDC: make([]uint64, cells),
		FalseDisable: make([]int32, cells), FalseTrust: make([]int32, cells),
	}
	refV := cfg.Voltages[0]
	g := gpu.DefaultConfig()
	g.FaultSeed = faultmodel.DieSeed(cfg.Seed, die)
	g.RefVoltage = refV
	var at []*gpu.SharedFaults
	ensureFaults := func() {
		if at == nil {
			var n int
			at, n = faultPopulation(r.rec, id, g, refV, append(append([]float64(nil), cfg.Voltages...), 1.0))
			r.faults += n
		}
	}
	cell := func(g gpu.Config, scheme string, wi, vi int) (gpu.Result, error) {
		key := experiments.CellKey(g, scheme, cfg.Workloads[wi], cfg.Seed, cfg.RequestsPerCU, cfg.WarmupKernels)
		var c simcache.Result
		var hit bool
		r.rec.do("simcache.get", id, func() { c, hit = r.store.Get(key) })
		if hit {
			return experiments.ResultFromCache(c), nil
		}
		ensureFaults()
		f, err := experiments.SchemeFactoryByName(scheme)
		if err != nil {
			return gpu.Result{}, err
		}
		if err := ctx.Err(); err != nil {
			return gpu.Result{}, err
		}
		res := simCell(r.rec, id, g, scheme, f, at[vi], r.loads[wi], r.traces[wi])
		r.rec.do("simcache.put", id, func() { _ = r.store.Put(key, experiments.CacheableResult(res)) })
		return res, nil
	}
	for wi := range cfg.Workloads {
		g.Voltage = 1.0
		g.Classes = faultmodel.ClassSpec{}
		res, err := cell(g, "none", wi, len(cfg.Voltages))
		if err != nil {
			return rec, err
		}
		rec.Base[wi] = res.Cycles
		for si, scheme := range cfg.Schemes {
			for ki := range r.classes {
				g.Classes = r.classes[ki]
				for vi, v := range cfg.Voltages {
					g.Voltage = v
					res, err := cell(g, scheme, wi, vi)
					if err != nil {
						return rec, err
					}
					ci := ((wi*len(cfg.Schemes)+si)*len(cfg.FaultClasses)+ki)*len(cfg.Voltages) + vi
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
	r.rec.do("simcache.putdie", id, func() { _ = r.store.PutDie(key, rec) })
	return rec, nil
}

// pass replays one whole campaign (traces, then every die) and returns the
// die records.
func (r *fleetReplica) pass(ctx context.Context) ([]simcache.DieRecord, error) {
	r.buildTraces()
	out := make([]simcache.DieRecord, r.cfg.Dies)
	for d := range out {
		var err error
		if out[d], err = r.die(ctx, d); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sameRecords checks the replica's die records against the ones the program
// stored under the same keys in dir.
func sameRecords(o *outcome, phase string, cfg campaign.Config, recs []simcache.DieRecord, dir string) {
	cfg, _ = cfg.Normalized()
	store, err := simcache.Open(dir)
	if !o.check(err == nil, "fleet %s: opening the program's cache: %v", phase, err) {
		return
	}
	for d, rec := range recs {
		want, ok := store.GetDie(dieKey(cfg, d))
		if !o.check(ok && want.Canonical() == rec.Canonical(), "fleet %s: replica die %d differs from the program's record", phase, d) {
			return
		}
	}
}

// fleetLayers is the traced fleet core: each phase runs through the program
// untraced and serial (the reference and the overhead base), then through the
// replica under spans, and the replica must reproduce the program's die
// records exactly.
func fleetLayers(p params, rec *recorder, dies int, o *outcome) (map[string]float64, error) {
	ctx := context.Background()
	m := map[string]float64{}
	progDir, replicaDir := filepath.Join(p.dir, "t-prog"), filepath.Join(p.dir, "t-replica")
	journalDir := filepath.Join(p.dir, "t-journal")
	serial := func(c campaign.Config) campaign.Config { c.Parallelism = 1; return c }

	// Cold, parallel (as the workload runs it) and serial (the same work
	// without the pool): their ratio is the pool's efficiency.
	coldCfg := fleetConfig(p, dies, fleetGrid, progDir, journalDir)
	var cold *campaign.Result
	var err error
	parWall := timed(func() { cold, err = campaign.Run(ctx, coldCfg) })
	if err != nil {
		return nil, err
	}
	m["campaign.journal_bytes"] = float64(dirBytes(journalDir))
	serCfg := serial(coldCfg)
	serCfg.CacheDir, serCfg.CheckpointDir = filepath.Join(p.dir, "t-serial"), ""
	var serialCold *campaign.Result
	serWall := timed(func() { serialCold, err = campaign.Run(ctx, serCfg) })
	if err != nil {
		return nil, err
	}
	o.check(jsonl(serialCold) == jsonl(cold), "fleet: serial campaign output differs from the parallel one")
	m["campaign.parallel_efficiency"] = serWall.Seconds() / (fleetWorkers * parWall.Seconds())

	store, err := simcache.Open(replicaDir)
	if err != nil {
		return nil, err
	}
	r, err := newFleetReplica(rec, coldCfg, store)
	if err != nil {
		return nil, err
	}
	var recs []simcache.DieRecord
	replicaCold := timed(func() { recs, err = r.pass(ctx) })
	if err != nil {
		return nil, err
	}
	sameRecords(o, "cold", coldCfg, recs, progDir)
	m["faultmodel.faults_at_ref"] = float64(r.faults) / float64(dies)

	// Warm: the program's serial re-run against the replica's, several
	// times each; the program's extra time per die is its own work —
	// aggregation and orchestration.
	warmCfg := serial(coldCfg)
	warmCfg.CheckpointDir = ""
	var progWarm, replicaWarm []float64
	warmStore, err := simcache.Open(replicaDir)
	if err != nil {
		return nil, err
	}
	r.store = warmStore
	var warmWall, replicaWarmWall time.Duration
	for i := 0; i < 7; i++ {
		var res *campaign.Result
		d := timed(func() { res, err = campaign.Run(ctx, warmCfg) })
		if err != nil {
			return nil, err
		}
		checkWarm(o, res, dies, jsonl(cold))
		progWarm = append(progWarm, d.Seconds())
		warmWall += d
		from := rec.mark()
		var got []simcache.DieRecord
		replicaWarmWall += timed(func() { got, err = r.pass(ctx) })
		if err != nil {
			return nil, err
		}
		for d := range got {
			if !o.check(got[d].Canonical() == recs[d].Canonical(), "fleet: warm replica die %d differs from cold", d) {
				break
			}
		}
		replicaWarm = append(replicaWarm, rec.topLevel(from, rec.mark()).Seconds())
	}
	m["campaign.other_ms"] = (median(progWarm) - median(replicaWarm)) * 1000 / float64(dies)
	m["simcache.hit_ratio.warm"] = ratio(warmStore.Hits(), warmStore.Hits()+warmStore.Misses())

	// Regrid: the program and the replica each extend a copy of their own
	// cold cache; the replica's records must match the program's.
	regridCfg := serial(fleetConfig(p, dies, regridGrid(), filepath.Join(p.dir, "t-prog-regrid"), ""))
	if err := copyDir(progDir, regridCfg.CacheDir); err != nil {
		return nil, err
	}
	var regrid *campaign.Result
	regridWall := timed(func() { regrid, err = campaign.Run(ctx, regridCfg) })
	if err != nil {
		return nil, err
	}
	checkFleet(o, cold, regrid, dies, "")
	rgDir := filepath.Join(p.dir, "t-replica-regrid")
	if err := copyDir(replicaDir, rgDir); err != nil {
		return nil, err
	}
	rgStore, err := simcache.Open(rgDir)
	if err != nil {
		return nil, err
	}
	before := dirBytes(rgDir)
	rr, err := newFleetReplica(rec, regridCfg, rgStore)
	if err != nil {
		return nil, err
	}
	var rgRecs []simcache.DieRecord
	replicaRegrid := timed(func() { rgRecs, err = rr.pass(ctx) })
	if err != nil {
		return nil, err
	}
	sameRecords(o, "regrid", regridCfg, rgRecs, regridCfg.CacheDir)
	m["simcache.hit_ratio.regrid"] = ratio(rgStore.Hits(), rgStore.Hits()+rgStore.Misses())

	m["simcache.hits"] = float64(store.Hits() + warmStore.Hits() + rgStore.Hits())
	m["simcache.misses"] = float64(store.Misses() + warmStore.Misses() + rgStore.Misses())
	m["simcache.write_failures"] = float64(store.WriteFailures() + warmStore.WriteFailures() + rgStore.WriteFailures())
	m["simcache.bytes_written"] = float64(dirBytes(replicaDir) + dirBytes(rgDir) - before)
	untraced := serWall + warmWall + regridWall
	traced := replicaCold + replicaWarmWall + replicaRegrid
	m["trace.overhead_pct"] = 100 * (traced.Seconds() - untraced.Seconds()) / untraced.Seconds()
	return m, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// traceDies caps the traced fleet run, which simulates every cold die three
// times (parallel, serial and replica), so it stays within a few minutes.
const traceDies = 36

func traceFleet(p params, rec *recorder) (*outcome, error) {
	o := newOutcome()
	m, err := fleetLayers(p, rec, min(fleetDies(p.seconds), traceDies), o)
	if err != nil {
		return nil, err
	}
	o.op(true)
	return finishLayers(p, o, rec, m, "fleet")
}
