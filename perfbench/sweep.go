package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"killi/internal/experiments"
	"killi/internal/gpu"
	"killi/internal/protection"
	"killi/internal/simserver"
	"killi/internal/workload"
)

// The sweep workload is the killi-sim -fig 45 path: an in-process
// simserver with one worker (as killi-sim builds it) and one KindSweep job
// per sweep — all ten catalog workloads × the eight sweep schemes at
// 0.625×VDD, one warmup kernel, parallelism 2, no cache. Each job has its own
// seed, so no job is served from the server's retained registry.
const (
	sweepVoltage  = 0.625
	sweepRequests = 2000
	sweepWarmup   = 1
	sweepWorkers  = 2
	streamSweep   = 2
)

// sweepJob is the j-th sweep job of a run.
func sweepJob(p params, j int, workloads []string, perCU, parallelism int) simserver.JobRequest {
	return simserver.JobRequest{
		Kind:          simserver.KindSweep,
		Voltage:       sweepVoltage,
		RequestsPerCU: perCU,
		Seed:          subSeed(p.seed, streamSweep, uint64(j)),
		WarmupKernels: sweepWarmup,
		Parallelism:   parallelism,
		Workloads:     workloads,
	}
}

func catalogNames() []string {
	var names []string
	for _, w := range workload.Catalog() {
		names = append(names, w.Name)
	}
	return names
}

// rowsText renders sweep rows with every float at %.17g, so two sweeps
// agree as text exactly when they agree bit for bit.
func rowsText(rows []experiments.Row) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%s %d %.17g", r.Workload, r.BaselineCycles, r.BaselineMPKI)
		for _, s := range r.SchemeNames() {
			fmt.Fprintf(&b, " %s=%.17g/%.17g/%d", s, r.Normalized[s], r.MPKI[s], r.Disabled[s])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// setupSweep is what killi-sim does before it submits the sweep: validate
// the flags, workloads and schemes, and start the in-process service.
func setupSweep() (func(), error) {
	if err := experiments.ValidateFlags(sweepRequests, sweepWorkers, 1, runtime.GOMAXPROCS(0)); err != nil {
		return func() {}, err
	}
	for _, name := range catalogNames() {
		if _, err := workload.ByName(name); err != nil {
			return func() {}, err
		}
	}
	for _, s := range experiments.Schemes() {
		if _, err := experiments.SchemeFactoryByName(s.Name); err != nil {
			return func() {}, err
		}
	}
	svc, err := simserver.New(simserver.Config{Workers: 1})
	if err != nil {
		return func() {}, err
	}
	return func() { _ = svc.Close(context.Background()) }, nil
}

// spotCheck re-runs one seeded (workload, scheme) cell of a sweep job and its
// baseline through experiments.RunOne and compares them with the job's row.
func spotCheck(o *outcome, p params, j int, req simserver.JobRequest, rows []experiments.Row) {
	specs := experiments.Schemes()
	pick := splitmix64(subSeed(p.seed, streamSweep, uint64(j)))
	wi, si := int(pick%uint64(len(rows))), int((pick>>32)%uint64(len(specs)))
	cfg := experiments.Config{RequestsPerCU: req.RequestsPerCU, Seed: req.Seed, WarmupKernels: req.WarmupKernels}
	ctx := context.Background()
	base, err1 := experiments.RunOne(ctx, cfg, rows[wi].Workload, func() protection.Scheme { return protection.NewNone() }, 1.0)
	res, err2 := experiments.RunOne(ctx, cfg, rows[wi].Workload, specs[si].New, sweepVoltage)
	name := specs[si].Name
	o.check(err1 == nil && err2 == nil &&
		fmt.Sprintf("%.17g %.17g %d", float64(res.Cycles)/float64(base.Cycles), res.MPKI(), res.DisabledLines) ==
			fmt.Sprintf("%.17g %.17g %d", rows[wi].Normalized[name], rows[wi].MPKI[name], rows[wi].Disabled[name]),
		"sweep job %d: %s x %s differs from a direct run", j, rows[wi].Workload, name)
}

// checkRows verifies a sweep's shape: one row per workload, every sweep
// scheme in each.
func checkRows(o *outcome, j int, rows []experiments.Row, workloads int) bool {
	if !o.check(len(rows) == workloads, "sweep job %d: %d rows, want %d", j, len(rows), workloads) {
		return false
	}
	for _, r := range rows {
		if !o.check(len(r.Normalized) == len(experiments.Schemes()) && r.BaselineCycles > 0,
			"sweep job %d: row %s has %d schemes", j, r.Workload, len(r.Normalized)) {
			return false
		}
	}
	return true
}

func measureSweep(p params) (*outcome, error) {
	o := newOutcome()
	setup, setups, err := medianSetup(setupSweep)
	if err != nil {
		return nil, err
	}
	svc, err := simserver.New(simserver.Config{Workers: 1})
	if err != nil {
		return nil, err
	}
	defer svc.Close(context.Background())
	names := catalogNames()
	cells := len(names) * (1 + len(experiments.Schemes()))
	var jobMS []float64
	var total time.Duration
	for end := time.Now().Add(time.Duration(p.seconds * float64(time.Second))); len(jobMS) < 3 || time.Now().Before(end); {
		j := len(jobMS)
		req := sweepJob(p, j, nil, sweepRequests, sweepWorkers)
		var res *simserver.JobResult
		d := timed(func() { res, err = svc.Submit(context.Background(), req) })
		ok := err == nil && checkRows(o, j, res.Rows, len(names))
		o.op(ok)
		if !ok {
			return nil, fmt.Errorf("sweep job %d: %v", j, err)
		}
		jobMS = append(jobMS, float64(d)/1e6)
		total += d
		spotCheck(o, p, j, req, res.Rows)
		if j == 0 && p.seed == defaultSeed {
			o.check(digest(rowsText(res.Rows)) == pinnedSweepDigest, "sweep: job 0 rows digest %s differs from the pinned one", digest(rowsText(res.Rows)))
		}
	}
	st := svc.Stats()
	o.check(st.Executed == int64(len(jobMS)) && st.RetainedHits == 0 && st.Coalesced == 0,
		"sweep: server executed %d of %d jobs (%d retained, %d coalesced)", st.Executed, len(jobMS), st.RetainedHits, st.Coalesced)

	o.set("setup_s", "s", setup)
	o.note("setup ms %s", quartiles(scale(setups, 1000)))
	o.set("peak_rss_mb", "MB", peakRSSMB())
	o.set("rate_per_s", "1/s", float64(cells)*1000/median(jobMS))
	o.set("fast_ms", "ms", median(jobMS))
	o.set("slow_ms", "ms", percentile(jobMS, 0.75))
	o.note("sweep: job ms %s", quartiles(jobMS))
	o.note("sweep: %d jobs x %d cells (%d workloads x (baseline + %d schemes)), %d req/CU, warmup %d, parallelism %d",
		len(jobMS), cells, len(names), len(experiments.Schemes()), sweepRequests, sweepWarmup, sweepWorkers)
	o.note("sweep: sweep_s=%.4g (median of %d jobs, upper quartile %.4g s, %d in all), %d fault maps built per job, 0 cache operations",
		median(jobMS)/1000, len(jobMS), percentile(jobMS, 0.75)/1000, total.Round(time.Millisecond), 2)
	return o, nil
}

// sweepReplica is experiments.Run's work for one job replayed serially:
// traces per workload, the two shared fault populations, then every task.
func sweepReplica(rec *recorder, req simserver.JobRequest) ([]experiments.Row, int, error) {
	var rows []experiments.Row
	var faults int
	var err error
	rec.do("experiments.sweep", "sweep", func() {
		seeds := experiments.KernelSeeds(req.Seed, req.WarmupKernels)
		gBase, gLV := gpu.DefaultConfig(), gpu.DefaultConfig()
		gBase.Voltage, gLV.Voltage = 1.0, req.Voltage
		var loads []workload.Workload
		var traces []*workload.TraceSet
		for _, name := range req.Workloads {
			w, werr := workload.ByName(name)
			if werr != nil {
				err = werr
				return
			}
			loads = append(loads, w)
			traces = append(traces, traceSet(rec, "sweep", w, gBase.CUs, req.RequestsPerCU, seeds))
		}
		base, n1 := faultPopulation(rec, "sweep", gBase, 1.0, []float64{1.0})
		lv, n2 := faultPopulation(rec, "sweep", gLV, req.Voltage, []float64{req.Voltage})
		faults = n1 + n2
		for wi, w := range loads {
			b := simCell(rec, w.Name, gBase, "none", func() protection.Scheme { return protection.NewNone() }, base[0], w, traces[wi])
			row := experiments.Row{Workload: w.Name, Class: w.Class, BaselineCycles: b.Cycles, BaselineMPKI: b.MPKI(),
				Normalized: map[string]float64{}, MPKI: map[string]float64{}, Disabled: map[string]int{}}
			for _, s := range experiments.Schemes() {
				res := simCell(rec, w.Name, gLV, s.Name, s.New, lv[0], w, traces[wi])
				row.Normalized[s.Name] = float64(res.Cycles) / float64(b.Cycles)
				row.MPKI[s.Name] = res.MPKI()
				row.Disabled[s.Name] = res.DisabledLines
			}
			rows = append(rows, row)
		}
	})
	return rows, faults, err
}

// sweepLayers is the traced sweep core: the job through the program in
// parallel (as the workload runs it) and serially, then through the replica
// under spans; the replica's rows must equal the program's.
func sweepLayers(p params, rec *recorder, workloads []string, perCU int, o *outcome) (map[string]float64, error) {
	m := map[string]float64{}
	ctx := context.Background()
	// The same job in parallel (as the workload runs it) and serially, each
	// on its own server: a resubmission to one server would be served from
	// its retained registry, since parallelism is not part of the job key.
	submit := func(parallelism int) (*simserver.JobResult, time.Duration, error) {
		svc, err := simserver.New(simserver.Config{Workers: 1})
		if err != nil {
			return nil, 0, err
		}
		defer svc.Close(ctx)
		var res *simserver.JobResult
		d := timed(func() { res, err = svc.Submit(ctx, sweepJob(p, 0, workloads, perCU, parallelism)) })
		return res, d, err
	}
	par, parWall, err := submit(sweepWorkers)
	if err != nil {
		return nil, err
	}
	serRes, serWall, err := submit(1)
	if err != nil {
		return nil, err
	}
	o.check(rowsText(serRes.Rows) == rowsText(par.Rows), "sweep: serial rows differ from parallel rows")
	from := rec.mark()
	norm := sweepJob(p, 0, workloads, perCU, 1)
	if len(norm.Workloads) == 0 {
		norm.Workloads = catalogNames()
	}
	var rows []experiments.Row
	var faults int
	replicaWall := timed(func() { rows, faults, err = sweepReplica(rec, norm) })
	if err != nil {
		return nil, err
	}
	o.check(rowsText(rows) == rowsText(par.Rows), "sweep: replica rows differ from the program's")
	cells := rec.byName(from, rec.mark())["sim.cell"]
	m["experiments.parallel_efficiency"] = cells.total.Seconds() / (sweepWorkers * parWall.Seconds())
	m["faultmodel.faults_at_ref"] = float64(faults) / 2
	m["trace.overhead_pct"] = 100 * (replicaWall.Seconds() - serWall.Seconds()) / serWall.Seconds()
	return m, nil
}

func traceSweep(p params, rec *recorder) (*outcome, error) {
	o := newOutcome()
	m, err := sweepLayers(p, rec, nil, sweepRequests, o)
	if err != nil {
		return nil, err
	}
	o.op(true)
	return finishLayers(p, o, rec, m, "sweep")
}
