package simserver

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"killi/internal/campaign"
	"killi/internal/experiments"
	"killi/internal/obs"
)

// Handler returns the daemon's HTTP API:
//
//	POST /v1/jobs     submit a JobRequest, block for the JobResult (JSON).
//	                  429 + Retry-After when the queue is full, 400 on a
//	                  bad request, 503 while draining.
//	GET  /v1/jobs/{key}  re-fetch a completed job from the bounded retained
//	                  registry by its content-address key (the POST
//	                  response's "key"/ETag). 404 once evicted by the
//	                  registry's max-entries/TTL bound or when retention
//	                  is disabled.
//	GET  /v1/observe  run one workload × scheme pair and stream its DFH
//	                  resets and per-epoch samples as Server-Sent Events
//	                  (query params: workload, scheme, voltage, requests,
//	                  seed, warmup, shards, epoch), ending with a "result"
//	                  event. Slow subscribers miss events rather than stall
//	                  the simulation; a "done" event reports the drop count.
//	GET  /v1/campaign run a fleet Monte Carlo campaign and stream its
//	                  per-die progress as Server-Sent Events (query params:
//	                  dies, workloads, schemes, voltages, requests, seed,
//	                  warmup, shards, threshold), ending with a "result"
//	                  event carrying the aggregated campaign.Result. Plain
//	                  (non-streamed) campaigns POST /v1/jobs with kind
//	                  "campaign" instead and get coalescing and retention.
//	GET  /healthz     liveness + queue stats (JSON).
//	GET  /metrics     the obs.Metrics document when the server has one.
//	GET  /debug/vars  the standard expvar page.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{key}", s.handleGetJob)
	mux.HandleFunc("GET /v1/observe", s.handleObserve)
	mux.HandleFunc("GET /v1/campaign", s.handleCampaign)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	if m := s.cfg.Metrics; m != nil {
		mux.Handle("GET /metrics", m.Handler())
	}
	mux.Handle("GET /debug/vars", expvar.Handler())
	return mux
}

// retryAfterSeconds is the backpressure hint on 429 responses: the queue
// holds whole simulations, so "shortly" is seconds, not milliseconds.
const retryAfterSeconds = 1

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("decoding job: %v", err))
		return
	}
	res, err := s.Submit(r.Context(), req)
	if err != nil {
		s.writeSubmitError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("ETag", `"`+res.Key+`"`)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(res)
}

// handleGetJob serves a completed job from the retained registry.
func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	var res *JobResult
	if s.retain != nil {
		res = s.retain.get(key)
	}
	if res == nil {
		httpError(w, http.StatusNotFound, fmt.Sprintf("no retained job %q (completed jobs are evicted by the registry's size/TTL bound)", key))
		return
	}
	s.retainedHits.Add(1)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("ETag", `"`+res.Key+`"`)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(res)
}

// writeSubmitError maps Submit errors onto HTTP statuses.
func (s *Server) writeSubmitError(w http.ResponseWriter, r *http.Request, err error) {
	var verr *ValidationError
	switch {
	case errors.As(err, &verr):
		httpError(w, http.StatusBadRequest, verr.Err.Error())
	case errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		httpError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrClosed):
		httpError(w, http.StatusServiceUnavailable, err.Error())
	case r.Context().Err() != nil:
		// The client is gone; nobody reads this status.
		httpError(w, http.StatusRequestTimeout, r.Context().Err().Error())
	default:
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}

func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.closed
	s.mu.Unlock()
	status := "ok"
	if draining {
		status = "draining"
	}
	doc := struct {
		Status string `json:"status"`
		Stats  Stats  `json:"stats"`
	}{Status: status, Stats: s.Stats()}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}

// observeEvent is one SSE payload on the /v1/observe stream.
type observeEvent struct {
	name string
	data any
}

// epochEvent is the per-epoch sample the stream carries: the machine-level
// obs.Sample plus the DFH population vector by state name.
type epochEvent struct {
	obs.Sample
	L2MPKI float64        `json:"l2_mpki"`
	DFH    map[string]int `json:"dfh"`
}

// streamObserver forwards per-epoch samples (and resets) from the
// simulation goroutine to the HTTP goroutine. The channel is buffered and
// sends never block: a subscriber slower than the simulation misses events
// (counted in dropped) rather than stalling a worker.
type streamObserver struct {
	ch      chan observeEvent
	pop     [obs.NumStates]int
	dropped int64
}

func newStreamObserver() *streamObserver {
	return &streamObserver{ch: make(chan observeEvent, 256)}
}

func (o *streamObserver) send(ev observeEvent) {
	select {
	case o.ch <- ev:
	default:
		o.dropped++
	}
}

// OnReset implements obs.Observer.
func (o *streamObserver) OnReset(r obs.Reset) {
	o.pop = [obs.NumStates]int{}
	o.pop[obs.StateInitial] = r.Lines
	o.send(observeEvent{name: "reset", data: map[string]any{
		"cycle": r.Cycle, "voltage": r.Voltage, "lines": r.Lines,
	}})
}

// OnTransition implements obs.Observer. Transitions are folded into the
// population vector rather than streamed — a training run has hundreds of
// thousands of them.
func (o *streamObserver) OnTransition(t obs.Transition) {
	if int(t.From) < obs.NumStates {
		o.pop[t.From]--
	}
	if int(t.To) < obs.NumStates {
		o.pop[t.To]++
	}
}

// OnEpoch implements obs.Observer.
func (o *streamObserver) OnEpoch(sample obs.Sample) {
	dfh := make(map[string]int, obs.NumStates)
	for st, n := range o.pop {
		dfh[obs.StateName(uint8(st))] = n
	}
	o.send(observeEvent{name: "epoch", data: epochEvent{Sample: sample, L2MPKI: sample.MPKI(), DFH: dfh}})
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	req, err := observeRequest(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	o := newStreamObserver()
	s.streamSSE(w, r, req, o, nil, o.ch, func() int64 { return o.dropped })
}

// handleCampaign runs a campaign job with a live progress subscription:
// throttled "progress" events while dies aggregate, then the "result" and
// "done" events the observe stream also ends with.
func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	req, err := campaignRequest(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	ch := make(chan observeEvent, 64)
	var dropped int64
	var lastSent int
	// Called in die order on the aggregating goroutine (one goroutine, so
	// lastSent needs no lock). Throttled to ~0.5% steps; sends never block,
	// so a slow subscriber misses progress rather than stalling aggregation.
	progress := func(p campaign.ProgressInfo) {
		if step := max(1, p.Total/200); p.Done != p.Total && p.Done-lastSent < step {
			return
		}
		lastSent = p.Done
		select {
		case ch <- observeEvent{name: "progress", data: map[string]int{
			"dies_done": p.Done, "dies_total": p.Total,
			"dies_cached": p.Cached, "dies_resumed": p.Resumed,
		}}:
		default:
			dropped++
		}
	}
	s.streamSSE(w, r, req, nil, progress, ch, func() int64 { return dropped })
}

// streamSSE submits req as a streamed job (o or progress is its
// subscriber, feeding events) and pumps the events and final outcome to an
// SSE subscriber. The SSE headers are only correct once the job is
// admitted; a queue rejection must still be a plain 429. Admission is fast
// (it never waits on simulations), so peek for an immediate error before
// committing to the stream: the first event or the outcome, whichever
// comes first, decides. dropped is read only after the job finishes (the
// submit goroutine's send on done orders it).
func (s *Server) streamSSE(w http.ResponseWriter, r *http.Request, req JobRequest, o obs.Observer, progress func(campaign.ProgressInfo), events <-chan observeEvent, dropped func() int64) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	type outcome struct {
		res *JobResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := s.submitStreamed(r.Context(), req, o, progress)
		done <- outcome{res, err}
	}()
	var started bool
	writeEvent := func(ev observeEvent) {
		if !started {
			w.Header().Set("Content-Type", "text/event-stream")
			w.Header().Set("Cache-Control", "no-store")
			w.WriteHeader(http.StatusOK)
			started = true
		}
		buf, err := json.Marshal(ev.data)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.name, buf)
		flusher.Flush()
	}
	for {
		select {
		case ev := <-events:
			writeEvent(ev)
		case out := <-done:
			// Drain events the job emitted before finishing.
			for {
				select {
				case ev := <-events:
					writeEvent(ev)
					continue
				default:
				}
				break
			}
			if out.err != nil {
				if !started {
					s.writeSubmitError(w, r, out.err)
					return
				}
				writeEvent(observeEvent{name: "error", data: map[string]string{"error": out.err.Error()}})
				return
			}
			writeEvent(observeEvent{name: "result", data: out.res})
			writeEvent(observeEvent{name: "done", data: map[string]int64{"dropped_events": dropped()}})
			return
		case <-r.Context().Done():
			// Subscriber gone; the submit path cancels the job. Drain the
			// goroutine and stop.
			<-done
			return
		}
	}
}

// observeRequest builds the run JobRequest from /v1/observe query params.
func observeRequest(r *http.Request) (JobRequest, error) {
	q := r.URL.Query()
	req := JobRequest{
		Kind:     KindRun,
		Workload: q.Get("workload"),
		Scheme:   q.Get("scheme"),
	}
	if err := queryUints(q, []uintParam{
		{"requests", func(v uint64) { req.RequestsPerCU = int(v) }},
		{"seed", func(v uint64) { req.Seed = v }},
		{"warmup", func(v uint64) { req.WarmupKernels = int(v) }},
		{"shards", func(v uint64) { req.Shards = int(v) }},
		{"epoch", func(v uint64) { req.EpochCycles = v }},
	}); err != nil {
		return req, err
	}
	if raw := q.Get("voltage"); raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return req, fmt.Errorf("bad voltage %q: %v", raw, err)
		}
		req.Voltage = v
	}
	return req, nil
}

// campaignRequest builds the campaign JobRequest from /v1/campaign query
// params. Validation proper happens in normalization — this only parses.
func campaignRequest(r *http.Request) (JobRequest, error) {
	q := r.URL.Query()
	req := JobRequest{
		Kind:      KindCampaign,
		Workloads: experiments.SplitList(q.Get("workloads")),
		Schemes:   experiments.SplitList(q.Get("schemes")),
	}
	if err := queryUints(q, []uintParam{
		{"dies", func(v uint64) { req.Dies = int(v) }},
		{"requests", func(v uint64) { req.RequestsPerCU = int(v) }},
		{"seed", func(v uint64) { req.Seed = v }},
		{"warmup", func(v uint64) { req.WarmupKernels = int(v) }},
		{"shards", func(v uint64) { req.Shards = int(v) }},
	}); err != nil {
		return req, err
	}
	if raw := q.Get("threshold"); raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return req, fmt.Errorf("bad threshold %q: %v", raw, err)
		}
		req.PassThreshold = v
	}
	for _, raw := range experiments.SplitList(q.Get("voltages")) {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return req, fmt.Errorf("bad voltage %q: %v", raw, err)
		}
		req.Voltages = append(req.Voltages, v)
	}
	return req, nil
}

// uintParam is one integer query param and the request field it sets.
type uintParam struct {
	name string
	set  func(uint64)
}

// queryUints parses each param that is present in q as a non-negative
// integer and hands it to its setter, in the order given; the first
// malformed one is the error.
func queryUints(q url.Values, params []uintParam) error {
	for _, p := range params {
		if raw := q.Get(p.name); raw != "" {
			v, err := strconv.ParseUint(raw, 10, 63)
			if err != nil {
				return fmt.Errorf("bad %s %q: %v", p.name, raw, err)
			}
			p.set(v)
		}
	}
	return nil
}
