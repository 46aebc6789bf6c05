package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"killi/internal/experiments"
	"killi/internal/faultmodel"
	"killi/internal/gpu"
	"killi/internal/simcache"
	"killi/internal/simserver"
	"killi/internal/workload"
)

// The daemon workload is the killi-simd path: the real Server.Handler behind
// a loopback HTTP server with a result cache and the default workers, queue
// and retention, driven closed-loop by two clients with one connection each
// (killi-sim and scripts block on their job). The request stream is generated
// from the seed; see jobStream.
const (
	daemonRequests = 1500
	daemonVoltage  = 0.625
	daemonClients  = 2
	streamDaemon   = 3

	// Item shares of the stream: first-seen jobs, concurrent duplicate
	// pairs (one new job sent by both clients at once), and repeats.
	firstShare = 0.25
	pairShare  = 0.05
	// Repeats pick among the distinct jobs issued at least repeatLag and at
	// most repeatWindow jobs earlier: old enough to have completed, recent
	// enough to still be in the server's retained registry (1024 jobs).
	repeatLag    = 32
	repeatWindow = 256
	// The stream's first warmDistinct items are all first-seen, so repeats
	// have a full lag window to pick from.
	warmDistinct = 40
	// digestKeys is how many leading distinct jobs the pinned digest covers.
	digestKeys = 16
)

// daemonShapes are the scheme and fault-class mixes first-seen jobs cycle
// through, crossed with the ten catalog workloads: two sweep schemes, the
// two non-sweep Killi variants, and a mixed fault population.
var daemonShapes = []struct{ scheme, classes string }{
	{"killi-1:64", ""},
	{"msecc", ""},
	{"killi-dected-1:64", ""},
	{"killi-olsc2-1:64", ""},
	{"killi-1:64", "mixed:i=0.2@0.25,a=0.1@0.05,t=1e-08"},
}

// Stream item kinds.
const (
	kindFirst  = "first"
	kindPair   = "pair"
	kindRepeat = "repeat"
)

// streamItem is one request of the stream: the job, the index of its
// distinct key in first-seen order, and how it arrives.
type streamItem struct {
	req  simserver.JobRequest
	key  int
	kind string
}

// jobStream generates the daemon's request stream from a seed. Item i
// depends only on the seed and the items before it, so a seed names the same
// stream on every host, whichever client sends which item.
type jobStream struct {
	seed    uint64
	perCU   int
	n       uint64
	jobs    []simserver.JobRequest // distinct jobs in first-seen order
	perm    []int                  // current shuffle of the shape grid
	catalog []string
}

func newJobStream(seed uint64, perCU int) *jobStream {
	return &jobStream{seed: seed, perCU: perCU, catalog: catalogNames()}
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

func (s *jobStream) next() streamItem {
	i := s.n
	s.n++
	h := splitmix64(subSeed(s.seed, streamDaemon, 1<<40+i))
	u := unit(h)
	switch {
	case len(s.jobs) < warmDistinct || u < firstShare:
		return streamItem{req: s.newJob(), key: len(s.jobs) - 1, kind: kindFirst}
	case u < firstShare+pairShare:
		return streamItem{req: s.newJob(), key: len(s.jobs) - 1, kind: kindPair}
	}
	hi := len(s.jobs) - repeatLag
	lo := max(0, len(s.jobs)-repeatWindow)
	k := lo + int(splitmix64(h)%uint64(hi-lo))
	return streamItem{req: s.jobs[k], key: k, kind: kindRepeat}
}

// newJob draws the next first-seen job. Shapes are dealt from a fresh seeded
// shuffle of the whole (workload × shape) grid each cycle, so every seed
// covers the grid evenly and seeds differ only in order and job seeds.
func (s *jobStream) newJob() simserver.JobRequest {
	c := len(s.jobs)
	grid := len(s.catalog) * len(daemonShapes)
	if c%grid == 0 {
		s.perm = make([]int, grid)
		for i := range s.perm {
			s.perm[i] = i
		}
		for i := grid - 1; i > 0; i-- {
			j := int(splitmix64(subSeed(s.seed, streamDaemon, uint64(c+i))) % uint64(i+1))
			s.perm[i], s.perm[j] = s.perm[j], s.perm[i]
		}
	}
	cell := s.perm[c%grid]
	shape := daemonShapes[cell%len(daemonShapes)]
	req := simserver.JobRequest{
		Kind:          simserver.KindRun,
		Workload:      s.catalog[cell/len(daemonShapes)],
		Scheme:        shape.scheme,
		Voltage:       daemonVoltage,
		RequestsPerCU: s.perCU,
		Seed:          subSeed(s.seed, streamDaemon, uint64(c)),
	}
	if shape.classes != "" {
		req.FaultClasses = []string{shape.classes}
	}
	s.jobs = append(s.jobs, req)
	return req
}

// dispatcher hands stream items to the clients. A pair item is held until
// the second client asks, and both then send it at once, so the server sees
// two identical requests in flight together.
type dispatcher struct {
	mu      sync.Mutex
	stream  *jobStream
	limit   uint64 // stop after this many items (0: no limit)
	taken   uint64
	pending *pairWait
	stop    chan struct{}
	once    sync.Once
}

type pairWait struct {
	item  streamItem
	ready chan struct{}
}

func newDispatcher(s *jobStream, limit uint64) *dispatcher {
	return &dispatcher{stream: s, limit: limit, stop: make(chan struct{})}
}

// take returns the next item to send, or false once the run is over.
func (d *dispatcher) take() (streamItem, bool) {
	d.mu.Lock()
	if pw := d.pending; pw != nil {
		d.pending = nil
		d.mu.Unlock()
		close(pw.ready)
		return pw.item, true
	}
	if d.limit > 0 && d.taken >= d.limit {
		d.mu.Unlock()
		d.halt()
		return streamItem{}, false
	}
	d.taken++
	it := d.stream.next()
	if it.kind != kindPair {
		d.mu.Unlock()
		return it, true
	}
	pw := &pairWait{item: it, ready: make(chan struct{})}
	d.pending = pw
	d.mu.Unlock()
	select {
	case <-pw.ready:
		return it, true
	case <-d.stop:
		return streamItem{}, false
	}
}

// halt ends the run: no client waits for a pair partner any more.
func (d *dispatcher) halt() { d.once.Do(func() { close(d.stop) }) }

// reply is one completed request.
type reply struct {
	item    streamItem
	latency time.Duration
	status  int
	result  string // canonical result text; empty unless status 200
}

// canonicalRun renders a run job's result with every float at %.17g.
func canonicalRun(r *simserver.RunResult) string {
	if r == nil {
		return ""
	}
	return fmt.Sprintf("%d %d %d %d %d %d %.17g", r.Cycles, r.Instructions, r.L2Misses,
		r.L2Accesses, r.MemAccesses, r.DisabledLines, r.L2MPKI)
}

// post sends one job and reads the whole reply.
func post(c *http.Client, url string, req simserver.JobRequest) (reply, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return reply{}, err
	}
	start := time.Now()
	resp, err := c.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	buf, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{latency: time.Since(start), status: resp.StatusCode}
	if err != nil {
		return r, err
	}
	if resp.StatusCode == http.StatusOK {
		var res simserver.JobResult
		if err := json.Unmarshal(buf, &res); err != nil {
			return r, err
		}
		r.result = canonicalRun(res.Run)
	}
	return r, nil
}

// newClient is one client with its own single keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// drive runs `clients` closed-loop clients against url until the deadline
// (or the dispatcher's item limit) and returns every reply.
func drive(url string, d *dispatcher, clients int, deadline time.Time) ([]reply, error) {
	var mu sync.Mutex
	var all []reply
	var firstErr error
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer d.halt()
			hc := newClient()
			defer hc.CloseIdleConnections()
			for deadline.IsZero() || time.Now().Before(deadline) {
				it, ok := d.take()
				if !ok {
					return
				}
				r, err := post(hc, url, it.req)
				r.item = it
				mu.Lock()
				all = append(all, r)
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	return all, firstErr
}

// checkReplies applies the daemon's output checks to a run's replies: every
// request answered 200 (a 429 or any other status is a failed operation),
// every reply for one job identical, the server executing each distinct job
// exactly once and rejecting nothing.
func checkReplies(o *outcome, replies []reply, st simserver.Stats) map[int]string {
	byKey := map[int]string{}
	for _, r := range replies {
		ok := r.status == http.StatusOK
		if ok {
			if prev, seen := byKey[r.item.key]; seen {
				ok = o.check(prev == r.result, "daemon: job %d answered differently on repeat", r.item.key)
			} else {
				byKey[r.item.key] = r.result
			}
		}
		o.op(ok)
	}
	o.check(st.Executed == int64(len(byKey)), "daemon: server executed %d jobs for %d distinct jobs", st.Executed, len(byKey))
	o.check(st.Rejected == 0, "daemon: server rejected %d requests", st.Rejected)
	return byKey
}

// leadingDigest digests the results of the stream's first digestKeys
// distinct jobs.
func leadingDigest(byKey map[int]string) (string, bool) {
	var b bytes.Buffer
	for k := 0; k < digestKeys; k++ {
		r, ok := byKey[k]
		if !ok {
			return "", false
		}
		b.WriteString(r + "\n")
	}
	return digest(b.String()), true
}

// daemonServer starts the service killi-simd runs, behind a loopback HTTP
// server.
func daemonServer(cacheDir string) (*simserver.Server, *httptest.Server, error) {
	svc, err := simserver.New(simserver.Config{CacheDir: cacheDir})
	if err != nil {
		return nil, nil, err
	}
	return svc, httptest.NewServer(svc.Handler()), nil
}

func stopServer(svc *simserver.Server, ts *httptest.Server) {
	ts.Close()
	_ = svc.Close(context.Background())
}

// setupDaemon starts the daemon behind its HTTP listener and waits for its
// health endpoint, as a client of killi-simd does before its first job.
func setupDaemon(p params, i int) (func(), error) {
	svc, ts, err := daemonServer(filepath.Join(p.dir, fmt.Sprintf("setup-%d", i)))
	if err != nil {
		return func() {}, err
	}
	hc := newClient()
	teardown := func() {
		hc.CloseIdleConnections()
		stopServer(svc, ts)
	}
	resp, err := hc.Get(ts.URL + "/healthz")
	if err != nil {
		return teardown, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return teardown, err
}

func measureDaemon(p params) (*outcome, error) {
	o := newOutcome()
	n := 0
	setup, setups, err := medianSetup(func() (func(), error) { n++; return setupDaemon(p, n) })
	if err != nil {
		return nil, err
	}
	svc, ts, err := daemonServer(filepath.Join(p.dir, "cache"))
	if err != nil {
		return nil, err
	}
	d := newDispatcher(newJobStream(p.seed, daemonRequests), 0)
	var replies []reply
	wall := timed(func() {
		replies, err = drive(ts.URL, d, daemonClients, time.Now().Add(time.Duration(p.seconds*float64(time.Second))))
	})
	stopServer(svc, ts)
	if err != nil {
		return nil, err
	}
	st := svc.Stats()
	byKey := checkReplies(o, replies, st)
	if p.seed == defaultSeed {
		dg, ok := leadingDigest(byKey)
		o.check(ok && dg == pinnedDaemonDigest, "daemon: leading results digest %s differs from the pinned one", dg)
	}
	lat := make([]float64, len(replies))
	kinds := map[string]int{}
	for i, r := range replies {
		lat[i] = float64(r.latency) / 1e6
		kinds[r.item.kind]++
	}
	sort.Float64s(lat)
	o.set("setup_s", "s", setup)
	o.note("setup ms %s", quartiles(scale(setups, 1000)))
	o.set("peak_rss_mb", "MB", peakRSSMB())
	o.set("rate_per_s", "1/s", float64(len(replies))/wall.Seconds())
	o.set("fast_ms", "ms", percentile(lat, 0.50))
	o.set("slow_ms", "ms", percentile(lat, 0.99))
	o.note("daemon: %d clients closed loop, %d req/CU jobs; %d requests (%d first-seen, %d in concurrent pairs, %d repeats)",
		daemonClients, daemonRequests, len(replies), kinds[kindFirst], kinds[kindPair], kinds[kindRepeat])
	o.note("daemon: jobs_per_s=%.4g req_p50_ms=%.4g req_p99_ms=%.4g (%d samples, %d beyond p99)",
		float64(len(replies))/wall.Seconds(), percentile(lat, 0.50), percentile(lat, 0.99), len(lat), beyond(len(lat), 0.99))
	o.note("daemon: request latency ms %s", quartiles(lat))
	o.note("daemon: server executed=%d coalesced=%d retained_hits=%d rejected=%d distinct=%d",
		st.Executed, st.Coalesced, st.RetainedHits, st.Rejected, len(byKey))
	return o, nil
}

// daemonReplica replays one first-seen run job the way the server executes
// it — experiments.RunOneNamed with a cache: a Get that misses, the job's
// traces, a private fault map, the simulation and a Put.
func daemonReplica(rec *recorder, store *simcache.Store, id string, req simserver.JobRequest) (string, int, error) {
	var out string
	var faults int
	var err error
	rec.do("simserver.job", id, func() {
		g := gpu.DefaultConfig()
		g.Voltage = req.Voltage
		if len(req.FaultClasses) == 1 {
			if g.Classes, err = faultmodel.ParseClassSpec(req.FaultClasses[0]); err != nil {
				return
			}
		}
		key := experiments.CellKey(g, req.Scheme, req.Workload, req.Seed, req.RequestsPerCU, req.WarmupKernels)
		var hit bool
		rec.do("simcache.get", id, func() { _, hit = store.Get(key) })
		if hit {
			err = fmt.Errorf("daemon replica: job %s was already cached", id)
			return
		}
		w, werr := workload.ByName(req.Workload)
		f, ferr := experiments.SchemeFactoryByName(req.Scheme)
		if werr != nil || ferr != nil {
			err = fmt.Errorf("daemon replica: %v %v", werr, ferr)
			return
		}
		ts := traceSet(rec, id, w, g.CUs, req.RequestsPerCU, experiments.KernelSeeds(req.Seed, req.WarmupKernels))
		var at []*gpu.SharedFaults
		at, faults = faultPopulation(rec, id, g, g.Voltage, []float64{g.Voltage})
		res := simCell(rec, id, g, req.Scheme, f, at[0], w, ts)
		rec.do("simcache.put", id, func() { _ = store.Put(key, experiments.CacheableResult(res)) })
		out = canonicalRun(&simserver.RunResult{
			Cycles: res.Cycles, Instructions: res.Instructions, L2Misses: res.L2Misses, L2Accesses: res.L2Accesses,
			MemAccesses: res.MemAccesses, DisabledLines: res.DisabledLines, L2MPKI: res.MPKI()})
	})
	return out, faults, err
}

// daemonLayers is the traced daemon core over the stream's first `items`
// items: the real two-client load (the reference results and the server's
// counters), a serial HTTP replay (request latencies), the serial in-process
// program path (RunOneNamed for first-seen jobs, Submit for the rest), and
// the replica of that path under spans, which must reproduce the HTTP
// results.
func daemonLayers(p params, rec *recorder, items uint64, perCU int, o *outcome) (map[string]float64, error) {
	m := map[string]float64{}
	ctx := context.Background()

	svc, ts, err := daemonServer(filepath.Join(p.dir, "t-load"))
	if err != nil {
		return nil, err
	}
	replies, err := drive(ts.URL, newDispatcher(newJobStream(p.seed, perCU), items), daemonClients, time.Time{})
	stopServer(svc, ts)
	if err != nil {
		return nil, err
	}
	st := svc.Stats()
	byKey := checkReplies(o, replies, st)
	m["simserver.executed"] = float64(st.Executed)
	m["simserver.coalesced"] = float64(st.Coalesced)
	m["simserver.retained_hits"] = float64(st.RetainedHits)
	m["simserver.rejected"] = float64(st.Rejected)
	m["simserver.executed_per_request"] = float64(st.Executed) / float64(len(replies))

	// The serial stream: pairs become two sequential requests.
	stream := newJobStream(p.seed, perCU)
	var seq []streamItem
	for i := uint64(0); i < items; i++ {
		it := stream.next()
		seq = append(seq, it)
		if it.kind == kindPair {
			seq = append(seq, it)
		}
	}
	svc, ts, err = daemonServer(filepath.Join(p.dir, "t-serial"))
	if err != nil {
		return nil, err
	}
	defer svc.Close(ctx)
	hc := newClient()
	seen := map[int]bool{}
	coldHTTP := map[int]float64{}
	var hot []float64
	for _, it := range seq {
		r, err := post(hc, ts.URL, it.req)
		if err != nil || r.status != http.StatusOK {
			ts.Close()
			return nil, fmt.Errorf("serial replay: status %d: %v", r.status, err)
		}
		o.check(r.result == byKey[it.key], "daemon: serial reply for job %d differs from the loaded run", it.key)
		if seen[it.key] {
			hot = append(hot, float64(r.latency)/1e3)
		} else {
			coldHTTP[it.key] = float64(r.latency) / 1e6
		}
		seen[it.key] = true
	}
	hc.CloseIdleConnections()
	ts.Close()
	m["simserver.hot_us"] = mean(hot)

	// The program path in process, untraced: the overhead base and the
	// cold wait's in-process side.
	seen = map[int]bool{}
	var wait, submitHot []float64
	inproc := timed(func() {
		for _, it := range seq {
			if seen[it.key] {
				start := time.Now()
				_, err = svc.Submit(ctx, it.req)
				submitHot = append(submitHot, float64(time.Since(start))/1e3)
			} else {
				cfg := experiments.Config{Voltage: it.req.Voltage, RequestsPerCU: it.req.RequestsPerCU, Seed: it.req.Seed,
					CacheDir: filepath.Join(p.dir, "t-inproc")}
				if len(it.req.FaultClasses) == 1 {
					cfg.FaultClasses = it.req.FaultClasses[0]
				}
				start := time.Now()
				_, err = experiments.RunOneNamed(ctx, cfg, it.req.Workload, it.req.Scheme, it.req.Voltage)
				wait = append(wait, coldHTTP[it.key]-float64(time.Since(start))/1e6)
			}
			if err != nil {
				return
			}
			seen[it.key] = true
		}
	})
	if err != nil {
		return nil, err
	}
	m["simserver.submit_hot_us"] = mean(submitHot)
	m["simserver.cold_wait_ms"] = mean(wait)

	// The replica, traced.
	store, err := simcache.Open(filepath.Join(p.dir, "t-replica"))
	if err != nil {
		return nil, err
	}
	seen = map[int]bool{}
	faults, maps := 0, 0
	replica := timed(func() {
		for i, it := range seq {
			id := fmt.Sprintf("req-%d", i)
			if seen[it.key] {
				rec.do("simserver.submit", id, func() { _, err = svc.Submit(ctx, it.req) })
			} else {
				var got string
				var n int
				got, n, err = daemonReplica(rec, store, id, it.req)
				faults += n
				maps++
				o.check(err == nil && got == byKey[it.key], "daemon: replica result for job %d differs from the server's", it.key)
			}
			if err != nil {
				return
			}
			seen[it.key] = true
		}
	})
	if err != nil {
		return nil, err
	}
	m["faultmodel.faults_at_ref"] = float64(faults) / float64(max(1, maps))
	m["simcache.hits"] = float64(store.Hits())
	m["simcache.misses"] = float64(store.Misses())
	m["simcache.write_failures"] = float64(store.WriteFailures())
	m["simcache.bytes_written"] = float64(dirBytes(store.Dir()))
	m["trace.overhead_pct"] = 100 * (replica.Seconds() - inproc.Seconds()) / inproc.Seconds()
	return m, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// daemonTraceItems is the stream prefix the traced daemon run replays.
const daemonTraceItems = 400

func traceDaemon(p params, rec *recorder) (*outcome, error) {
	o := newOutcome()
	m, err := daemonLayers(p, rec, daemonTraceItems, daemonRequests, o)
	if err != nil {
		return nil, err
	}
	return finishLayers(p, o, rec, m, "daemon")
}
