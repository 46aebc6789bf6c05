// Package simserver is the resident simulation service behind cmd/killi-simd:
// a job engine that accepts single-run, sweep, and fleet-campaign requests,
// dedupes identical
// in-flight requests (singleflight-style coalescing keyed on the simcache
// SHA-256 digest of the job's result-determining inputs), bounds concurrent
// work with a worker pool budgeted against GOMAXPROCS (shards × workers),
// applies backpressure when the queue is full, streams per-epoch obs samples
// to observe subscribers, and drains gracefully on shutdown.
//
// cmd/killi-sim submits its sweep through the same in-process API, so the
// CLI and the daemon share one validation, caching, cancellation, and
// metrics path; cmd/killi-simd puts the HTTP/JSON layer (Handler) in front
// of it. Results are bit-identical to direct experiments calls — the engine
// adds scheduling, never simulation semantics.
package simserver

import (
	"fmt"
	"strings"

	"killi/internal/campaign"
	"killi/internal/experiments"
	"killi/internal/gpu"
	"killi/internal/simcache"
)

// Job kinds.
const (
	KindSweep    = "sweep"    // the Figure 4/5 workload × scheme grid
	KindRun      = "run"      // one workload × scheme simulation
	KindCampaign = "campaign" // a fleet Monte Carlo campaign (internal/campaign)
)

// JobRequest describes one job. The zero value of every optional field
// means "the default" (mirroring the experiments.Config conventions), and
// normalization makes the defaults explicit so identical jobs written
// differently — {} vs {"seed":1} — coalesce and cache identically.
//
// The GPU model is always the paper's Table 3 configuration; jobs
// parameterize the operating point, trace, and protection scheme around it.
type JobRequest struct {
	// Kind is KindSweep, KindRun or KindCampaign.
	Kind string `json:"kind"`
	// Voltage is the LV operating point (default 0.625).
	Voltage float64 `json:"voltage,omitempty"`
	// RequestsPerCU is the trace length per compute unit (default 4000).
	RequestsPerCU int `json:"requests_per_cu,omitempty"`
	// Seed drives trace generation and fault sampling (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// WarmupKernels precede the measured kernel (default 0).
	WarmupKernels int `json:"warmup_kernels,omitempty"`
	// Shards is the per-simulation shard count (default: the server's).
	// Results are bit-identical at every value, so it does not participate
	// in the job key.
	Shards int `json:"shards,omitempty"`
	// Parallelism bounds a sweep's internal worker pool (default: the
	// server budget). Like Shards it never changes results, only wall-clock.
	Parallelism int `json:"parallelism,omitempty"`
	// Workloads restricts a sweep (default: the full ten-workload catalog).
	Workloads []string `json:"workloads,omitempty"`
	// Workload and Scheme select a run job's pair (Scheme uses the
	// experiments.SchemeSyntax grammar).
	Workload string `json:"workload,omitempty"`
	Scheme   string `json:"scheme,omitempty"`
	// EpochCycles sets the sampling epoch for observe streams (default
	// gpu.DefaultEpochCycles). Ignored for plain jobs.
	EpochCycles uint64 `json:"epoch_cycles,omitempty"`
	// Dies is a campaign job's Monte Carlo device-instance count (required
	// for campaigns, rejected elsewhere).
	Dies int `json:"dies,omitempty"`
	// Voltages is a campaign job's operating-point grid (default: the
	// paper's 0.575..0.700 grid). Campaigns sweep a grid, so they take this
	// instead of the scalar Voltage.
	Voltages []float64 `json:"voltages,omitempty"`
	// Schemes is a campaign job's protection-scheme list (default
	// {"killi-1:64", "msecc"}).
	Schemes []string `json:"schemes,omitempty"`
	// PassThreshold is a campaign job's yield criterion (default 1.10).
	PassThreshold float64 `json:"pass_threshold,omitempty"`
	// FaultClasses selects non-persistent fault populations by
	// faultmodel.ClassSyntax spec. Run and sweep jobs take at most one
	// (their single population); campaign jobs take a list (a campaign
	// axis). Absent, empty, and ["persistent"] all mean the paper's
	// persistent-only model and coalesce identically.
	FaultClasses []string `json:"fault_classes,omitempty"`
}

// campaignConfig translates a campaign request into the campaign.Config its
// execution uses; campaign.Config.Normalized is the single validation and
// defaulting path, so a job and a killi-fleet invocation with the same
// inputs mean the same campaign.
func (r JobRequest) campaignConfig() campaign.Config {
	return campaign.Config{
		Workloads:     r.Workloads,
		Schemes:       r.Schemes,
		FaultClasses:  r.FaultClasses,
		Voltages:      r.Voltages,
		Dies:          r.Dies,
		Seed:          r.Seed,
		RequestsPerCU: r.RequestsPerCU,
		WarmupKernels: r.WarmupKernels,
		Parallelism:   r.Parallelism,
		Shards:        r.Shards,
		PassThreshold: r.PassThreshold,
	}
}

// normalized returns the request with every default made explicit, or a
// one-line validation error. maxProcs parameterizes the oversubscription
// check exactly as experiments.ValidateFlags. Beyond the kind's field
// checks, the execution budget and the epoch default, it delegates: a run
// or sweep normalizes through experiments.Config.Normalized, a campaign
// through campaign.Config.Normalized, and their canonical values are copied
// back so identical jobs written differently share one key.
func (r JobRequest) normalized(defaultShards, maxProcs int) (JobRequest, error) {
	switch r.Kind {
	case KindSweep, KindRun, KindCampaign:
	case "":
		return r, fmt.Errorf(`job kind is required ("%s", "%s", or "%s")`, KindSweep, KindRun, KindCampaign)
	default:
		return r, fmt.Errorf("unknown job kind %q (want %q, %q, or %q)", r.Kind, KindSweep, KindRun, KindCampaign)
	}
	// The execution knobs every kind shares: Shards defaults to the
	// server's, Parallelism to auto. The trace length is each kind's
	// normalization's to check, so the budget check gets a valid one.
	if r.Shards == 0 {
		r.Shards = defaultShards
	}
	if r.Parallelism == 0 {
		r.Parallelism = -1
	}
	if err := experiments.ValidateFlags(1, r.Parallelism, r.Shards, maxProcs); err != nil {
		return r, err
	}
	if r.Kind == KindCampaign {
		return r.normalizedCampaign()
	}
	if r.Dies != 0 || len(r.Voltages) != 0 || len(r.Schemes) != 0 || r.PassThreshold != 0 {
		return r, fmt.Errorf(`"dies"/"voltages"/"schemes"/"pass_threshold" are campaign fields`)
	}
	if len(r.FaultClasses) > 1 {
		return r, fmt.Errorf(`a %s job takes at most one "fault_classes" spec (the list is a campaign axis)`, r.Kind)
	}
	cfg := r.config("")
	if r.Kind == KindRun {
		if len(r.Workloads) != 0 {
			return r, fmt.Errorf(`"workloads" is a sweep field; a run job takes "workload"`)
		}
		if r.Workload == "" || r.Scheme == "" {
			return r, fmt.Errorf(`a run job needs "workload" and "scheme"`)
		}
		if _, err := experiments.SchemeByName(r.Scheme); err != nil {
			return r, err
		}
		// The pair's workload is the run's one workload: normalization
		// looks it up, and the sweep's catalog list is never built.
		cfg.Workloads = []string{r.Workload}
	} else if r.Workload != "" || r.Scheme != "" {
		return r, fmt.Errorf(`"workload"/"scheme" are run fields; a sweep job takes "workloads"`)
	}
	cfg, err := cfg.Normalized()
	if err != nil {
		return r, err
	}
	r.Voltage, r.RequestsPerCU, r.Seed = cfg.Voltage, cfg.RequestsPerCU, cfg.Seed
	r.FaultClasses = nil // the default population; coalesce with absent
	if cfg.FaultClasses != "" {
		r.FaultClasses = []string{cfg.FaultClasses}
	}
	if r.Kind == KindSweep {
		r.Workloads = cfg.Workloads
	}
	if r.EpochCycles == 0 {
		r.EpochCycles = gpu.DefaultEpochCycles
	}
	return r, nil
}

// normalizedCampaign is the campaign arm of normalized. Campaign defaults
// deliberately differ from run/sweep where the statistics say they should —
// 2000 requests per CU, not 4000: a campaign buys power from die count, not
// trace length.
func (r JobRequest) normalizedCampaign() (JobRequest, error) {
	if r.Workload != "" || r.Scheme != "" {
		return r, fmt.Errorf(`"workload"/"scheme" are run fields; a campaign takes "workloads" and "schemes"`)
	}
	if r.Voltage != 0 {
		return r, fmt.Errorf(`"voltage" is a run/sweep field; a campaign takes the "voltages" grid`)
	}
	if r.EpochCycles != 0 {
		return r, fmt.Errorf(`"epoch_cycles" is an observe field; campaigns stream progress, not epochs`)
	}
	cc, err := r.campaignConfig().Normalized()
	if err != nil {
		return r, err
	}
	r.Workloads, r.Schemes, r.Voltages = cc.Workloads, cc.Schemes, cc.Voltages
	r.FaultClasses = cc.FaultClasses
	r.Seed = cc.Seed
	r.RequestsPerCU = cc.RequestsPerCU
	r.WarmupKernels = cc.WarmupKernels
	r.PassThreshold = cc.PassThreshold
	return r, nil
}

// key is the job's content address: the simcache SHA-256 digest of its
// result-determining inputs. Shards and Parallelism are deliberately
// excluded — results are bit-identical at every value of either (pinned by
// the shard/parallelism invariance tests in internal/experiments and the
// campaign parallelism-invariance test), so jobs differing only in
// execution knobs coalesce into one simulation. v2 added the campaign
// fields (they hash as empty for run/sweep jobs); v3 added the fault-class
// list (empty = persistent-only, canonicalized by normalization so every
// spelling of the same mix shares a key).
func (r JobRequest) key() string {
	volts := make([]string, len(r.Voltages))
	for i, v := range r.Voltages {
		volts[i] = fmt.Sprintf("%.17g", v)
	}
	return simcache.Key(fmt.Sprintf(
		"simserver-job/v3\nkind=%s\nvoltage=%.17g\nrequests=%d\nseed=%d\nwarmup=%d\nworkloads=%s\nworkload=%s\nscheme=%s\ndies=%d\nvoltages=%s\nschemes=%s\nthreshold=%.17g\nclasses=%s",
		r.Kind, r.Voltage, r.RequestsPerCU, r.Seed, r.WarmupKernels,
		strings.Join(r.Workloads, ","), r.Workload, r.Scheme,
		r.Dies, strings.Join(volts, ","), strings.Join(r.Schemes, ","), r.PassThreshold,
		strings.Join(r.FaultClasses, ",")))
}

// config translates the normalized request into the experiments.Config its
// execution uses. CacheDir comes from the server, Progress is attached by
// the executor.
func (r JobRequest) config(cacheDir string) experiments.Config {
	cfg := experiments.Config{
		Voltage:       r.Voltage,
		RequestsPerCU: r.RequestsPerCU,
		Seed:          r.Seed,
		WarmupKernels: r.WarmupKernels,
		Parallelism:   r.Parallelism,
		Shards:        r.Shards,
		CacheDir:      cacheDir,
		Workloads:     r.Workloads,
	}
	if len(r.FaultClasses) == 1 {
		cfg.FaultClasses = r.FaultClasses[0]
	}
	return cfg
}

// RunResult is the scalar outcome of a run job.
type RunResult struct {
	Cycles        uint64  `json:"cycles"`
	Instructions  uint64  `json:"instructions"`
	L2Misses      uint64  `json:"l2_misses"`
	L2Accesses    uint64  `json:"l2_accesses"`
	MemAccesses   uint64  `json:"mem_accesses"`
	DisabledLines int     `json:"disabled_lines"`
	L2MPKI        float64 `json:"l2_mpki"`
}

// JobResult is a completed job as returned to every (possibly coalesced)
// submitter.
type JobResult struct {
	Kind string `json:"kind"`
	// Key is the job's content address, also usable as an ETag.
	Key string `json:"key"`
	// Rows carries a sweep's Figure 4/5 rows.
	Rows []experiments.Row `json:"rows,omitempty"`
	// Run carries a run job's result.
	Run *RunResult `json:"run,omitempty"`
	// Campaign carries a campaign job's aggregated result.
	Campaign *campaign.Result `json:"campaign,omitempty"`
	// Cached reports that a run job was served from the content-addressed
	// result cache without simulating (sweeps cache per-task; their flag
	// stays false even when every task hit).
	Cached bool `json:"cached"`
	// Coalesced reports that this submitter joined another submitter's
	// in-flight execution of the identical job.
	Coalesced bool `json:"coalesced"`
	// ElapsedSeconds is the executor's wall-clock for the job (coalesced
	// submitters see the leader's).
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}
