package simserver

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"killi/internal/campaign"
	"killi/internal/experiments"
	"killi/internal/gpu"
	"killi/internal/obs"
	"killi/internal/simcache"
)

// ErrBusy is returned when the job queue is full; HTTP maps it to 429 with
// a Retry-After hint. ErrClosed is returned once shutdown has begun (503).
var (
	ErrBusy   = errors.New("simserver: job queue is full")
	ErrClosed = errors.New("simserver: server is shutting down")
)

// Config parameterizes a Server.
type Config struct {
	// CacheDir roots the content-addressed result cache shared by every
	// job ("" disables caching — every job simulates).
	CacheDir string
	// Shards is the per-simulation shard count jobs default to (0 = 1).
	Shards int
	// Workers bounds concurrently executing jobs. 0 budgets
	// max(1, GOMAXPROCS/Shards), so shards × workers never oversubscribes
	// the machine.
	Workers int
	// QueueDepth bounds jobs waiting beyond the running ones; a full queue
	// rejects new work with ErrBusy. 0 means 4 × Workers.
	QueueDepth int
	// Metrics, when non-nil, receives job counters (jobs_executed,
	// jobs_coalesced, jobs_rejected, queue_depth, jobs_running) and the
	// most recent sweep's task progress next to its built-in vars.
	Metrics *obs.Metrics
	// RetainJobs bounds the in-memory registry of completed job results
	// (re-fetchable via GET /v1/jobs/{key}; identical re-submissions are
	// served from it without queueing). 0 means 1024; negative disables
	// retention entirely.
	RetainJobs int
	// RetainTTL bounds a retained result's age: entries older than it are
	// evicted lazily on every record and lookup. 0 means 10 minutes;
	// negative keeps entries until capacity evicts them.
	RetainTTL time.Duration
}

// call is one keyed execution: the leader submits it, coalesced followers
// wait on done.
type call struct {
	req      JobRequest
	key      string
	observer obs.Observer                // non-nil: an observe job (never coalesced)
	progress func(campaign.ProgressInfo) // non-nil: a streamed campaign (never coalesced)
	subCtx   context.Context             // observe/streamed only: the subscriber's context
	done     chan struct{}
	res      *JobResult
	err      error
}

// streamed reports whether this call has a live subscriber: such calls are
// never coalesced (each subscriber needs its own stream), never retained,
// and are cancelled when their subscriber vanishes.
func (c *call) streamed() bool { return c.observer != nil || c.progress != nil }

// Server is the resident job engine. Construct with New, submit with
// Submit (or the HTTP Handler), stop with Close.
type Server struct {
	cfg     Config
	workers int
	store   *simcache.Store // nil when caching is disabled
	retain  *retainer       // nil when retention is disabled

	mu       sync.Mutex
	closed   bool
	inflight map[string]*call
	jobs     chan *call

	wg        sync.WaitGroup
	runCtx    context.Context
	cancelRun context.CancelFunc
	drained   chan struct{}

	executed     atomic.Int64 // jobs a worker actually ran
	coalesced    atomic.Int64 // submissions served by joining an in-flight job
	rejected     atomic.Int64 // submissions bounced with ErrBusy
	queued       atomic.Int64 // jobs waiting in the queue right now
	running      atomic.Int64 // jobs executing right now
	retainedHits atomic.Int64 // submissions served from the retained registry

	// beforeAdmit, when non-nil, runs in Submit between the retained
	// registry check and admit: a seam that lets a test complete the same
	// job inside that window. Always nil outside tests.
	beforeAdmit func()
}

// Stats is a snapshot of the server's job counters.
type Stats struct {
	Executed  int64 `json:"executed"`  // jobs run by the worker pool
	Coalesced int64 `json:"coalesced"` // submissions that joined an identical in-flight job
	Rejected  int64 `json:"rejected"`  // submissions rejected with ErrBusy
	Queued    int64 `json:"queued"`    // jobs waiting right now
	Running   int64 `json:"running"`   // jobs executing right now
	Workers   int   `json:"workers"`   // worker-pool size
	Queue     int   `json:"queue"`     // queue capacity
	// Retained is the number of completed job results currently held by
	// the bounded registry; RetainedHits counts submissions served from it.
	Retained     int   `json:"retained"`
	RetainedHits int64 `json:"retained_hits"`
}

// Stats returns a snapshot of the job counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Executed:     s.executed.Load(),
		Coalesced:    s.coalesced.Load(),
		Rejected:     s.rejected.Load(),
		Queued:       s.queued.Load(),
		Running:      s.running.Load(),
		Workers:      s.workers,
		Queue:        cap(s.jobs),
		RetainedHits: s.retainedHits.Load(),
	}
	if s.retain != nil {
		st.Retained = s.retain.count()
	}
	return st
}

// New starts a Server: its worker pool runs until Close.
func New(cfg Config) (*Server, error) {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = max(1, runtime.GOMAXPROCS(0)/cfg.Shards)
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 4 * workers
	}
	var store *simcache.Store
	if cfg.CacheDir != "" {
		var err error
		if store, err = simcache.Open(cfg.CacheDir); err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		workers:   workers,
		store:     store,
		inflight:  make(map[string]*call),
		jobs:      make(chan *call, depth),
		runCtx:    ctx,
		cancelRun: cancel,
		drained:   make(chan struct{}),
	}
	if cfg.RetainJobs >= 0 {
		maxJobs := cfg.RetainJobs
		if maxJobs == 0 {
			maxJobs = defaultRetainJobs
		}
		ttl := cfg.RetainTTL
		if ttl == 0 {
			ttl = defaultRetainTTL
		}
		s.retain = newRetainer(maxJobs, ttl, time.Now)
	}
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.publishMetrics()
	return s, nil
}

// publishMetrics adds the server's gauges and counters to the optional
// obs.Metrics document.
func (s *Server) publishMetrics() {
	m := s.cfg.Metrics
	if m == nil {
		return
	}
	gauge := func(f func() int64) expvar.Var { return expvar.Func(func() any { return f() }) }
	m.Set("jobs_executed", gauge(s.executed.Load))
	m.Set("jobs_coalesced", gauge(s.coalesced.Load))
	m.Set("jobs_rejected", gauge(s.rejected.Load))
	m.Set("jobs_running", gauge(s.running.Load))
	m.Set("queue_depth", gauge(s.queued.Load))
	m.Set("queue_capacity", gauge(func() int64 { return int64(cap(s.jobs)) }))
	m.Set("workers", gauge(func() int64 { return int64(s.workers) }))
	m.Set("jobs_retained", gauge(func() int64 {
		if s.retain == nil {
			return 0
		}
		return int64(s.retain.count())
	}))
	m.Set("retained_hits", gauge(s.retainedHits.Load))
}

// worker executes queued jobs until the queue is closed and drained.
func (s *Server) worker() {
	defer s.wg.Done()
	for c := range s.jobs {
		s.queued.Add(-1)
		s.running.Add(1)
		c.res, c.err = s.execute(s.runCtx, c)
		s.running.Add(-1)
		// Record before dropping the in-flight entry: admit relies on this
		// order to find a just-completed job in the registry.
		if c.err == nil && !c.streamed() && s.retain != nil {
			s.retain.record(c.res)
		}
		s.mu.Lock()
		// Guarded delete: a streamed job never registers as leader, so an
		// unconditional delete could evict a still-running plain leader that
		// shares its key.
		if s.inflight[c.key] == c {
			delete(s.inflight, c.key)
		}
		s.mu.Unlock()
		close(c.done)
	}
}

// execute runs one job under the server's lifecycle context.
func (s *Server) execute(ctx context.Context, c *call) (*JobResult, error) {
	s.executed.Add(1)
	start := time.Now()
	req := c.req
	cfg := req.config(s.cfg.CacheDir)
	out := &JobResult{Kind: req.Kind, Key: c.key}
	// A vanished subscriber cancels its own job (but never the server's
	// other work): merge the subscriber context into the lifecycle one.
	runCtx := ctx
	if c.subCtx != nil {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithCancel(ctx)
		defer cancel()
		stop := context.AfterFunc(c.subCtx, cancel)
		defer stop()
	}
	switch {
	case c.observer != nil:
		newScheme, err := experiments.SchemeFactoryByName(req.Scheme)
		if err != nil {
			return nil, err
		}
		// Observed runs bypass the cache: their value is the stream.
		res, err := experiments.RunOneObserved(runCtx, cfg, req.Workload, newScheme, req.Voltage, c.observer, req.EpochCycles)
		if err != nil {
			return nil, err
		}
		out.Run = runResult(res)
	case req.Kind == KindCampaign:
		ccfg := req.campaignConfig()
		// Campaign jobs honor the server's result cache at both grains
		// (whole-die records and per-cell entries); the retained-result
		// registry sits in front of this unchanged.
		ccfg.CacheDir = s.cfg.CacheDir
		ccfg.Progress = c.progress
		if ccfg.Progress == nil {
			if m := s.cfg.Metrics; m != nil {
				ccfg.Progress = func(p campaign.ProgressInfo) { m.TaskDone(p.Done, p.Total) }
			}
		}
		res, err := campaign.Run(runCtx, ccfg)
		if err != nil {
			return nil, err
		}
		out.Campaign = res
		// Every die served whole from the store means the campaign touched
		// no simulator at all — the campaign analogue of a cached run.
		out.Cached = s.store != nil && res.CachedDies == res.Dies
	case req.Kind == KindSweep:
		if m := s.cfg.Metrics; m != nil {
			cfg.Progress = m.TaskDone
		}
		rows, err := experiments.Run(ctx, cfg)
		if err != nil {
			return nil, err
		}
		out.Rows = rows
	default: // KindRun
		res, err := experiments.RunOneNamed(ctx, cfg, req.Workload, req.Scheme, req.Voltage)
		if err != nil {
			return nil, err
		}
		out.Run = runResult(res)
		// RunOneNamed attaches Counters only when it simulated; a bare
		// scalar result came from the content-addressed cache.
		out.Cached = res.Counters == nil && s.store != nil
	}
	out.ElapsedSeconds = time.Since(start).Seconds()
	return out, nil
}

func runResult(res gpu.Result) *RunResult {
	return &RunResult{
		Cycles:        res.Cycles,
		Instructions:  res.Instructions,
		L2Misses:      res.L2Misses,
		L2Accesses:    res.L2Accesses,
		MemAccesses:   res.MemAccesses,
		DisabledLines: res.DisabledLines,
		L2MPKI:        res.MPKI(),
	}
}

// Submit validates and executes one job, blocking until the result is
// ready. Identical concurrent submissions coalesce: one simulates, the
// rest wait on it and receive the same result with Coalesced set. A job
// identical to one the bounded retained registry still holds is served
// from memory immediately, with Cached set, without touching the queue.
// When the queue is full Submit fails fast with ErrBusy; after Close
// begins it fails with ErrClosed.
//
// Cancelling ctx abandons the wait and returns ctx.Err(); the job itself
// keeps running (other submitters may be coalesced onto it, and its result
// still warms the cache). Job execution is cancelled only by server
// shutdown.
func (s *Server) Submit(ctx context.Context, req JobRequest) (*JobResult, error) {
	norm, err := req.normalized(s.cfg.Shards, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, &ValidationError{Err: err}
	}
	key := norm.key()
	if s.retain != nil {
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		// Jobs are content-addressed and simulations deterministic, so a
		// retained result can never be stale. Draining servers still refuse:
		// shutdown semantics beat the fast path.
		if res := s.retain.get(key); res != nil && !closed {
			return s.retainedHit(res), nil
		}
	}
	if s.beforeAdmit != nil {
		s.beforeAdmit()
	}
	c, coalesced, err := s.admit(&call{req: norm, key: key, done: make(chan struct{})})
	if err != nil {
		return nil, err
	}
	res, err := s.wait(ctx, c)
	if err != nil || !coalesced {
		return res, err
	}
	joined := *res
	joined.Coalesced = true
	return &joined, nil
}

// SubmitObserved is Submit for a run job with a live observer attached:
// o receives the run's DFH resets, classification transitions, and
// per-epoch samples from the simulation goroutine while the job executes.
// Observed jobs go through the same queue, budget, and backpressure as
// plain jobs but are never coalesced (each subscriber needs its own event
// stream) and never served from the result cache. Unlike Submit,
// cancelling ctx also cancels the running simulation at its next kernel
// boundary — a vanished subscriber must not keep burning a worker.
func (s *Server) SubmitObserved(ctx context.Context, req JobRequest, o obs.Observer) (*JobResult, error) {
	if req.Kind != KindRun {
		return nil, &ValidationError{Err: fmt.Errorf("observe streams are run jobs; got kind %q", req.Kind)}
	}
	norm, err := req.normalized(s.cfg.Shards, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, &ValidationError{Err: err}
	}
	c := &call{req: norm, key: norm.key(), observer: o, subCtx: ctx, done: make(chan struct{})}
	if _, _, err := s.admit(c); err != nil {
		return nil, err
	}
	return s.wait(ctx, c)
}

// SubmitCampaignObserved is Submit for a campaign job with a live progress
// subscriber: progress receives cumulative die counts (done/total plus how
// many were served from the die cache or replayed from a checkpoint) in die
// order while the campaign executes — the feed behind killi-simd's
// GET /v1/campaign SSE stream. Like observe streams, subscribed campaigns
// share the queue, budget, and backpressure but are never coalesced or
// retained, and cancelling ctx cancels the running campaign at the next
// kernel boundary. Plain (unsubscribed) campaigns go through Submit like
// any other job and get coalescing, retention, and metrics-based progress
// for free.
func (s *Server) SubmitCampaignObserved(ctx context.Context, req JobRequest, progress func(campaign.ProgressInfo)) (*JobResult, error) {
	if req.Kind != KindCampaign {
		return nil, &ValidationError{Err: fmt.Errorf("campaign streams are campaign jobs; got kind %q", req.Kind)}
	}
	if progress == nil {
		return nil, &ValidationError{Err: fmt.Errorf("campaign stream needs a progress callback; use Submit for a plain campaign")}
	}
	norm, err := req.normalized(s.cfg.Shards, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, &ValidationError{Err: err}
	}
	c := &call{req: norm, key: norm.key(), progress: progress, subCtx: ctx, done: make(chan struct{})}
	if _, _, err := s.admit(c); err != nil {
		return nil, err
	}
	return s.wait(ctx, c)
}

// retainedHit counts a submission served from the retained registry and
// returns its copy of res, marked Cached.
func (s *Server) retainedHit(res *JobResult) *JobResult {
	s.retainedHits.Add(1)
	out := *res
	out.Cached = true
	return &out
}

// admit coalesces c onto an identical in-flight call, serves it from the
// retained registry, or enqueues it, returning the call to wait on and
// whether it was coalesced.
func (s *Server) admit(c *call) (*call, bool, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false, ErrClosed
	}
	if !c.streamed() {
		if leader, ok := s.inflight[c.key]; ok {
			s.mu.Unlock()
			s.coalesced.Add(1)
			return leader, true, nil
		}
		// A worker records its result before dropping the in-flight entry,
		// so a job that completed after the caller's registry check missed
		// is retained by now: serve it instead of executing it again.
		if s.retain != nil {
			if res := s.retain.get(c.key); res != nil {
				s.mu.Unlock()
				c.res = s.retainedHit(res)
				close(c.done)
				return c, false, nil
			}
		}
	}
	select {
	case s.jobs <- c:
		// Streamed jobs are keyed but never joined (each subscriber needs
		// its own event stream), so only plain jobs register as leaders.
		if !c.streamed() {
			s.inflight[c.key] = c
		}
		s.queued.Add(1)
		s.mu.Unlock()
		return c, false, nil
	default:
		s.mu.Unlock()
		s.rejected.Add(1)
		return nil, false, ErrBusy
	}
}

// wait blocks until c completes or ctx is cancelled.
func (s *Server) wait(ctx context.Context, c *call) (*JobResult, error) {
	select {
	case <-c.done:
		return c.res, c.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Close shuts the server down gracefully: no new submissions are admitted,
// queued and running jobs drain to completion, and stranded cache temp
// files are swept. If ctx expires first, in-flight simulations are
// cancelled at their next kernel boundary and Close returns once the pool
// has stopped (returning ctx.Err() to signal the forced drain). Close is
// idempotent; later calls wait for the first drain.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.drained
		return nil
	}
	s.closed = true
	close(s.jobs) // admit holds the lock for every send, so this is safe
	s.mu.Unlock()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.cancelRun()
		<-done
		err = ctx.Err()
	}
	s.cancelRun()
	if s.store != nil {
		// All workers have stopped; any temp file left is stranded.
		_, _ = s.store.RemoveTemps()
	}
	close(s.drained)
	return err
}

// ValidationError marks a request the caller got wrong (HTTP 400), as
// opposed to a server-side failure.
type ValidationError struct{ Err error }

func (e *ValidationError) Error() string { return fmt.Sprintf("simserver: invalid job: %v", e.Err) }
func (e *ValidationError) Unwrap() error { return e.Err }
