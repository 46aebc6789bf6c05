package simserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"killi/internal/obs"
)

// smallRun is a fast run job for tests (~10ms of simulation).
func smallRun(seed uint64) JobRequest {
	return JobRequest{
		Kind:          KindRun,
		Workload:      "xsbench",
		Scheme:        "killi-1:64",
		RequestsPerCU: 300,
		Seed:          seed,
	}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Close(ctx)
	})
	return s
}

func TestSubmitRunAndSweep(t *testing.T) {
	// No retained registry: every repeat must reach a worker, so a Cached
	// answer can only come from the server's disk store.
	s := newTestServer(t, Config{CacheDir: t.TempDir(), Workers: 2, RetainJobs: -1})
	ctx := context.Background()

	run, err := s.Submit(ctx, smallRun(1))
	if err != nil {
		t.Fatal(err)
	}
	if run.Kind != KindRun || run.Run == nil || run.Run.Cycles == 0 {
		t.Fatalf("degenerate run result: %+v", run)
	}
	if run.Cached {
		t.Fatal("first submission reported a cache hit")
	}

	sweep, err := s.Submit(ctx, JobRequest{
		Kind:          KindSweep,
		Workloads:     []string{"xsbench"},
		RequestsPerCU: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Kind != KindSweep || len(sweep.Rows) != 1 || sweep.Rows[0].Workload != "xsbench" {
		t.Fatalf("degenerate sweep result: %+v", sweep)
	}
	// The earlier run job cached its own entry: the identical run now hits.
	warm, err := s.Submit(ctx, smallRun(1))
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("identical repeat run did not hit the result cache")
	}
	if *warm.Run != *run.Run {
		t.Fatalf("cache-served run diverges: warm %+v, cold %+v", warm.Run, run.Run)
	}
	// Only the sweep simulated xsbench × msecc, under the same per-task key
	// a run job uses: the run job is served from the sweep's entry, through
	// a worker.
	before := s.Stats().Executed
	req := smallRun(1)
	req.Scheme = "msecc"
	fromSweep, err := s.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !fromSweep.Cached {
		t.Fatal("run of a sweep-simulated pair did not hit the sweep's cache entry")
	}
	if got := s.Stats().Executed - before; got != 1 {
		t.Fatalf("run of a sweep-simulated pair executed %d jobs, want 1 (a worker, not the registry)", got)
	}
	if sweep.Cached {
		t.Fatal("a sweep job reported Cached; only run jobs served from the store do")
	}

	// Observing the warm pair simulates it with the observer attached: the
	// stream is the point, so the store is neither read nor written and the
	// job is not Cached, yet its scalars equal the cached run's.
	hits, misses := s.store.Hits(), s.store.Misses()
	observed, err := s.submitStreamed(ctx, smallRun(1), obs.NewCollector(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if observed.Cached {
		t.Fatal("an observed run reported Cached")
	}
	if *observed.Run != *run.Run {
		t.Fatalf("observed run diverges: observed %+v, plain %+v", observed.Run, run.Run)
	}
	if s.store.Hits() != hits || s.store.Misses() != misses {
		t.Fatalf("an observed run read the store: hits %d→%d, misses %d→%d", hits, s.store.Hits(), misses, s.store.Misses())
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	for name, req := range map[string]JobRequest{
		"no kind":             {},
		"bad kind":            {Kind: "compile"},
		"run without pair":    {Kind: KindRun},
		"unknown workload":    {Kind: KindRun, Workload: "nope", Scheme: "killi-1:64"},
		"unknown scheme":      {Kind: KindRun, Workload: "xsbench", Scheme: "nope"},
		"sweep with workload": {Kind: KindSweep, Workload: "xsbench", Scheme: "killi-1:64"},
		"run with workloads":  {Kind: KindRun, Workload: "xsbench", Scheme: "killi-1:64", Workloads: []string{"fft"}},
		"bad sweep subset":    {Kind: KindSweep, Workloads: []string{"nope"}},
		"negative requests":   {Kind: KindRun, Workload: "xsbench", Scheme: "killi-1:64", RequestsPerCU: -1},
		"negative warmup":     {Kind: KindRun, Workload: "xsbench", Scheme: "killi-1:64", WarmupKernels: -1},
		"silly voltage":       {Kind: KindRun, Workload: "xsbench", Scheme: "killi-1:64", Voltage: 9},
		"NaN voltage":         {Kind: KindRun, Workload: "xsbench", Scheme: "killi-1:64", Voltage: math.NaN()},
		"NaN sweep voltage":   {Kind: KindSweep, Workloads: []string{"fft"}, Voltage: math.NaN()},
		"bad shards":          {Kind: KindRun, Workload: "xsbench", Scheme: "killi-1:64", Shards: -2},
		"olsc too strong":     {Kind: KindRun, Workload: "xsbench", Scheme: "killi-olsc12-1:64"},
		// The product 2^64 wraps to 0 in an int.
		"overflowing budget": {Kind: KindRun, Workload: "xsbench", Scheme: "killi-1:64", Parallelism: 1 << 32, Shards: 1 << 32},
	} {
		_, err := s.Submit(ctx, req)
		var verr *ValidationError
		if !errors.As(err, &verr) {
			t.Errorf("%s: err = %v, want a ValidationError", name, err)
		}
	}
	if got := s.Stats().Executed; got != 0 {
		t.Fatalf("%d jobs executed for invalid requests, want 0", got)
	}
}

// TestCoalescing pins the request-coalescing contract: N identical
// concurrent jobs run exactly one simulation and every submitter gets an
// identical result, the followers marked Coalesced.
func TestCoalescing(t *testing.T) {
	// One worker and a deep queue: a blocker job occupies the worker while
	// the identical submissions arrive, so the leader is deterministically
	// still in flight (queued) when every follower looks it up.
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 16})
	ctx := context.Background()
	const n = 8

	var blockerWG sync.WaitGroup
	blockerWG.Add(1)
	go func() {
		defer blockerWG.Done()
		blocker := smallRun(99)
		blocker.RequestsPerCU = 20000
		_, _ = s.Submit(ctx, blocker)
	}()
	waitFor(t, func() bool { return s.Stats().Running == 1 })

	req := smallRun(7)
	var wg sync.WaitGroup
	results := make([]*JobResult, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Submit(ctx, req)
		}(i)
	}
	wg.Wait()
	blockerWG.Wait()

	coalesced := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("submission %d: %v", i, errs[i])
		}
		if results[i].Run == nil {
			t.Fatalf("submission %d: no run result", i)
		}
		if *results[i].Run != *results[0].Run {
			t.Fatalf("submission %d diverges: %+v vs %+v", i, results[i].Run, results[0].Run)
		}
		if results[i].Coalesced {
			coalesced++
		}
	}
	st := s.Stats()
	if st.Executed != 2 { // the blocker plus exactly one leader
		t.Fatalf("%d simulations executed for %d identical jobs (+1 blocker), want 2", st.Executed, n)
	}
	if coalesced != n-1 || st.Coalesced != n-1 {
		t.Fatalf("coalesced responses %d (stats %d), want %d", coalesced, st.Coalesced, n-1)
	}
}

// TestSubmitRacingCompletionExecutesOnce forces the interleaving where a
// submission misses the retained registry and then, before it reaches
// admit, an identical job completes: its worker records the result and
// drops the in-flight entry. The late submission must be served from the
// registry, not simulate the job a second time.
func TestSubmitRacingCompletionExecutesOnce(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	ctx := context.Background()
	req := smallRun(11)
	var inner *JobResult
	var innerErr error
	s.beforeAdmit = func() {
		s.beforeAdmit = nil // the nested Submit below takes the plain path
		inner, innerErr = s.Submit(ctx, req)
	}
	res, err := s.Submit(ctx, req)
	if err != nil || innerErr != nil {
		t.Fatalf("submit: %v / nested submit: %v", err, innerErr)
	}
	if inner.Cached || inner.Run == nil {
		t.Fatalf("nested submission should have simulated: %+v", inner)
	}
	st := s.Stats()
	if st.Executed != 1 {
		t.Fatalf("%d simulations executed for one job, want 1", st.Executed)
	}
	if !res.Cached || st.RetainedHits != 1 {
		t.Fatalf("late submission Cached=%v, retained hits %d; want a registry hit", res.Cached, st.RetainedHits)
	}
	if *res.Run != *inner.Run {
		t.Fatalf("late submission diverges: %+v vs %+v", res.Run, inner.Run)
	}
}

// TestCoalescingIgnoresExecutionKnobs pins that shards/parallelism — which
// never change results — do not fragment the key space.
func TestCoalescingIgnoresExecutionKnobs(t *testing.T) {
	a := smallRun(1)
	b := smallRun(1)
	b.Shards = 2
	b.Parallelism = 3
	na, err := a.normalized(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := b.normalized(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if na.key() != nb.key() {
		t.Fatal("jobs differing only in shards/parallelism got distinct keys")
	}
	c := smallRun(2)
	nc, err := c.normalized(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if na.key() == nc.key() {
		t.Fatal("jobs with distinct seeds share a key")
	}
}

// TestBackpressure fills the queue and checks the overflow submission is
// rejected with ErrBusy (the HTTP layer's 429) rather than queued or hung.
func TestBackpressure(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	ctx := context.Background()

	// Occupy the worker and the single queue slot with distinct jobs.
	var wg sync.WaitGroup
	launch := func(seed uint64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := smallRun(seed)
			req.RequestsPerCU = 20000
			_, _ = s.Submit(ctx, req)
		}()
	}
	launch(11)
	waitFor(t, func() bool { return s.Stats().Running == 1 })
	launch(12)
	waitFor(t, func() bool { return s.Stats().Queued == 1 })

	if _, err := s.Submit(ctx, smallRun(13)); !errors.Is(err, ErrBusy) {
		t.Fatalf("overflow submission: err = %v, want ErrBusy", err)
	}
	if got := s.Stats().Rejected; got != 1 {
		t.Fatalf("Rejected = %d, want 1", got)
	}
	wg.Wait()
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseDrainsQueue pins graceful shutdown: jobs admitted before Close
// complete, submissions after Close fail with ErrClosed, and Close is
// idempotent.
func TestCloseDrainsQueue(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const n = 3
	var wg sync.WaitGroup
	results := make([]*JobResult, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := smallRun(uint64(100 + i))
			req.RequestsPerCU = 20000 // slow enough that all three are admitted together
			results[i], errs[i] = s.Submit(ctx, req)
		}(i)
	}
	waitFor(t, func() bool {
		st := s.Stats()
		return st.Running+st.Queued == n
	})
	closeCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if err := s.Close(closeCtx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil || results[i].Run == nil {
			t.Fatalf("pre-Close job %d: res %+v err %v, want a drained result", i, results[i], errs[i])
		}
	}
	if _, err := s.Submit(ctx, smallRun(200)); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close submission: err = %v, want ErrClosed", err)
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestCloseCancelsOnDeadline pins the forced-drain path: a Close whose
// context expires cancels in-flight simulations instead of waiting them
// out, and still returns with the pool stopped.
func TestCloseCancelsOnDeadline(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := smallRun(1)
	req.RequestsPerCU = 200000 // minutes of simulation — must be cut short
	req.WarmupKernels = 4
	errc := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, req)
		errc <- err
	}()
	waitFor(t, func() bool { return s.Stats().Running == 1 })

	closeCtx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = s.Close(closeCtx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced Close: err = %v, want DeadlineExceeded", err)
	}
	// The long job's kernels are ~seconds each; a forced drain must come
	// back at kernel granularity, far under the full runtime.
	if took := time.Since(start); took > 90*time.Second {
		t.Fatalf("forced Close took %v", took)
	}
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled job's submitter got %v, want context.Canceled", err)
	}
}

// TestHTTPJobEndpoint drives the JSON API end to end: a job round-trips,
// malformed and invalid bodies get 400, and identical requests produce
// identical payloads (determinism over HTTP).
func TestHTTPJobEndpoint(t *testing.T) {
	s := newTestServer(t, Config{CacheDir: t.TempDir(), Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) (*http.Response, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
		return resp, doc
	}

	body := `{"kind":"run","workload":"xsbench","scheme":"killi-1:64","requests_per_cu":300}`
	resp, doc := post(body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, doc)
	}
	if doc["run"] == nil || doc["kind"] != "run" {
		t.Fatalf("bad payload: %v", doc)
	}
	if resp.Header.Get("ETag") == "" {
		t.Fatal("no ETag on a job response")
	}

	resp2, doc2 := post(body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d", resp2.StatusCode)
	}
	if doc2["cached"] != true {
		t.Fatalf("repeat request not served from cache: %v", doc2)
	}
	if !reflect.DeepEqual(doc["run"], doc2["run"]) {
		t.Fatalf("identical requests diverged: %v vs %v", doc["run"], doc2["run"])
	}

	for name, body := range map[string]string{
		"malformed":     `{"kind":`,
		"unknown field": `{"kind":"run","workload":"xsbench","scheme":"killi-1:64","frobnicate":1}`,
		"invalid":       `{"kind":"run"}`,
		// OLSC strength 40 would need a 79×79 grid and 3160 checkbits.
		"olsc too strong": `{"kind":"run","workload":"xsbench","scheme":"killi-olsc40-1:64"}`,
	} {
		if resp, doc := post(body); resp.StatusCode != http.StatusBadRequest || doc["error"] == "" {
			t.Errorf("%s: status %d doc %v, want 400 with error", name, resp.StatusCode, doc)
		}
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		Stats  Stats  `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Stats.Workers != 2 {
		t.Fatalf("healthz: %+v", health)
	}
}

// TestHTTPBackpressure pins the 429 + Retry-After contract over the wire.
func TestHTTPBackpressure(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	slow := func(seed int) string {
		return fmt.Sprintf(`{"kind":"run","workload":"xsbench","scheme":"killi-1:64","requests_per_cu":20000,"seed":%d}`, seed)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(slow(11+i)))
			if err == nil {
				resp.Body.Close()
			}
		}(i)
	}
	waitFor(t, func() bool {
		st := s.Stats()
		return st.Running == 1 && st.Queued == 1
	})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(slow(13)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	wg.Wait()
}

// TestObserveStream pins the SSE endpoint: epoch events arrive with DFH
// populations and the stream terminates with result + done events.
func TestObserveStream(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/observe?workload=xsbench&scheme=killi-1:64&requests=400&epoch=2048")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q, want text/event-stream", ct)
	}
	events := parseSSE(t, resp)
	if events["reset"] == 0 {
		t.Fatal("no reset event on the stream")
	}
	if events["epoch"] < 2 {
		t.Fatalf("%d epoch events, want at least 2", events["epoch"])
	}
	if events["result"] != 1 || events["done"] != 1 {
		t.Fatalf("stream ended with result=%d done=%d, want 1/1", events["result"], events["done"])
	}

	// Bad params are a plain 400, not a broken stream — and never reach a
	// worker: a NaN voltage once panicked one inside the fault model and
	// took the daemon down, so the same server must still answer after.
	for _, query := range []string{
		"workload=nope&scheme=killi-1:64",
		"workload=xsbench&scheme=killi-1:64&voltage=NaN",
		"workload=xsbench&scheme=killi-1:64&voltage=-0.5",
	} {
		resp2, err := http.Get(ts.URL + "/v1/observe?" + query)
		if err != nil {
			t.Fatal(err)
		}
		resp2.Body.Close()
		if resp2.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", query, resp2.StatusCode)
		}
	}
	health, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Fatalf("healthz after bad requests: status %d", health.StatusCode)
	}
}

// TestMalformedQueryErrorIsStable: a query with two malformed integer
// params gets one 400 body every time, naming the first param in the
// endpoint's fixed order, not whichever one a map's random order reaches
// first.
func TestMalformedQueryErrorIsStable(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, tc := range []struct{ query, names string }{
		{"/v1/observe?workload=xsbench&scheme=killi-1:64&epoch=x&seed=y&requests=z", "requests"},
		{"/v1/campaign?shards=x&warmup=y&dies=z", "dies"},
	} {
		bodies := map[string]int{}
		for i := 0; i < 50; i++ {
			resp, err := http.Get(ts.URL + tc.query)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s: status %d, want 400", tc.query, resp.StatusCode)
			}
			bodies[string(body)]++
		}
		if len(bodies) != 1 {
			t.Fatalf("%s: %d distinct error bodies over 50 requests: %v", tc.query, len(bodies), bodies)
		}
		for body := range bodies {
			if !strings.Contains(body, "bad "+tc.names+" ") {
				t.Fatalf("%s: error %q does not name %s", tc.query, body, tc.names)
			}
		}
	}
}

// parseSSE counts events by name and sanity-checks each data line is JSON.
func parseSSE(t *testing.T, resp *http.Response) map[string]int {
	t.Helper()
	counts := map[string]int{}
	var current string
	buf := make([]byte, 0, 1<<16)
	tmp := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(tmp)
		buf = append(buf, tmp[:n]...)
		if err != nil {
			break
		}
	}
	for _, line := range strings.Split(string(buf), "\n") {
		switch {
		case strings.HasPrefix(line, "event: "):
			current = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			counts[current]++
			if !json.Valid([]byte(strings.TrimPrefix(line, "data: "))) {
				t.Fatalf("event %q carries invalid JSON: %s", current, line)
			}
		}
	}
	return counts
}

// TestFaultClassJobs pins the fault-class plumbing through the job layer:
// spellings of the same spec coalesce, the persistent spelling coalesces
// with an absent field, distinct mixes get distinct keys, run/sweep jobs
// reject a multi-element list, malformed specs fail validation, and a
// classed run job actually reaches the simulator (its result differs from
// the persistent run).
func TestFaultClassJobs(t *testing.T) {
	norm := func(r JobRequest) JobRequest {
		t.Helper()
		n, err := r.normalized(1, 8)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	plain := norm(smallRun(1))
	persistent := smallRun(1)
	persistent.FaultClasses = []string{"persistent"}
	if k := norm(persistent).key(); k != plain.key() {
		t.Error("explicit persistent job does not coalesce with the default")
	}
	a := smallRun(1)
	a.FaultClasses = []string{"mixed:i=0.50@0.300"}
	b := smallRun(1)
	b.FaultClasses = []string{"mixed:i=0.5@0.3"}
	if norm(a).key() != norm(b).key() {
		t.Error("two spellings of one mix got distinct keys")
	}
	if norm(a).key() == plain.key() {
		t.Error("mixed job shares a key with the persistent job")
	}

	s := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	for name, req := range map[string]JobRequest{
		"malformed spec": {Kind: KindRun, Workload: "xsbench", Scheme: "killi-1:64", FaultClasses: []string{"mixed:zzz"}},
		"list on a run":  {Kind: KindRun, Workload: "xsbench", Scheme: "killi-1:64", FaultClasses: []string{"persistent", "mixed:i=0.5@0.3"}},
	} {
		_, err := s.Submit(ctx, req)
		var verr *ValidationError
		if !errors.As(err, &verr) {
			t.Errorf("%s: err = %v, want a ValidationError", name, err)
		}
	}

	base, err := s.Submit(ctx, smallRun(1))
	if err != nil {
		t.Fatal(err)
	}
	classed := smallRun(1)
	classed.FaultClasses = []string{"mixed:i=0.5@0.3"}
	got, err := s.Submit(ctx, classed)
	if err != nil {
		t.Fatal(err)
	}
	if *got.Run == *base.Run {
		t.Error("classed run job returned the persistent result; classes are not reaching the simulator")
	}

	// A campaign job carries the list as an axis and echoes the canonical
	// specs in its result.
	camp, err := s.Submit(ctx, JobRequest{
		Kind:          KindCampaign,
		Dies:          1,
		Workloads:     []string{"xsbench"},
		Schemes:       []string{"killi-1:64"},
		Voltages:      []float64{0.625},
		RequestsPerCU: 200,
		FaultClasses:  []string{"", "mixed:i=0.50@0.300"},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"persistent", "mixed:i=0.5@0.3"}
	if !reflect.DeepEqual(camp.Campaign.FaultClasses, want) {
		t.Errorf("campaign fault classes = %v, want %v", camp.Campaign.FaultClasses, want)
	}
	if len(camp.Campaign.Cells) != 2 {
		t.Errorf("campaign produced %d cells, want 2 (one per class)", len(camp.Campaign.Cells))
	}
}
