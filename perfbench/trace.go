package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Spans of one die or request share ID.
type span struct {
	name   string // "<layer>.<call>", e.g. "simcache.get"
	id     string // die or request the call belongs to
	parent int    // index of the enclosing span, -1 at top level
	start  time.Duration
	end    time.Duration
	// events and cycles are what a sim.cell span fired and simulated;
	// group holds its aggregation keys (scheme, workload class).
	events uint64
	cycles uint64
	group  []string
}

func (s *span) layer() string      { l, _, _ := strings.Cut(s.name, "."); return l }
func (s *span) dur() time.Duration { return s.end - s.start }

// recorder keeps spans in memory until the run ends. It is used from one
// goroutine: the traced replay is serial by design.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indices
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span nested in the innermost open one and returns its index.
func (r *recorder) begin(name, id string) int {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{name: name, id: id, parent: parent, start: time.Since(r.t0)})
	r.open = append(r.open, len(r.spans)-1)
	return len(r.spans) - 1
}

// end closes span i, which must be the innermost open span.
func (r *recorder) end(i int) *span {
	if n := len(r.open); n == 0 || r.open[n-1] != i {
		panic("perfbench: span closed out of order")
	}
	r.open = r.open[:len(r.open)-1]
	r.spans[i].end = time.Since(r.t0)
	return &r.spans[i]
}

// do records f as one span.
func (r *recorder) do(name, id string, f func()) *span {
	i := r.begin(name, id)
	f()
	return r.end(i)
}

// mark returns the current span count; spans recorded after it belong to the
// phase that started there.
func (r *recorder) mark() int { return len(r.spans) }

// selfTimes returns each span's duration minus the part its direct children
// cover.
func (r *recorder) selfTimes() []time.Duration {
	self := make([]time.Duration, len(r.spans))
	for i := range r.spans {
		self[i] += r.spans[i].dur()
		if p := r.spans[i].parent; p >= 0 {
			self[p] -= r.spans[i].dur()
		}
	}
	return self
}

// agg is the total duration and count of the spans with one name.
type agg struct {
	n      int
	total  time.Duration
	events uint64
}

func (a agg) ms() float64 { return float64(a.total) / 1e6 }

// meanMS is the mean span duration in milliseconds (0 when none ran).
func (a agg) meanMS() float64 {
	if a.n == 0 {
		return 0
	}
	return a.ms() / float64(a.n)
}

// nsPerEvent is total time over total events (0 when no events fired).
func (a agg) nsPerEvent() float64 {
	if a.events == 0 {
		return 0
	}
	return float64(a.total) / float64(a.events)
}

// byName aggregates the spans in [from, to) by name.
func (r *recorder) byName(from, to int) map[string]agg {
	out := map[string]agg{}
	for _, s := range r.spans[from:to] {
		a := out[s.name]
		a.n++
		a.total += s.dur()
		a.events += s.events
		out[s.name] = a
	}
	return out
}

// byGroup aggregates the sim.cell spans in [from, to) by each group key.
func (r *recorder) byGroup(from, to int) map[string]agg {
	out := map[string]agg{}
	for _, s := range r.spans[from:to] {
		for _, g := range s.group {
			a := out[g]
			a.n++
			a.total += s.dur()
			a.events += s.events
			out[g] = a
		}
	}
	return out
}

// topLevel sums the durations of the top-level spans in [from, to) — the
// replayed children of the program call the phase stands for.
func (r *recorder) topLevel(from, to int) time.Duration {
	var d time.Duration
	for _, s := range r.spans[from:to] {
		if s.parent < 0 {
			d += s.dur()
		}
	}
	return d
}

// selfTable renders the per-layer self-time table: calls, total and self
// time per layer, and each layer's share of all self time.
func (r *recorder) selfTable() string {
	type row struct {
		calls       int
		total, self time.Duration
	}
	rows := map[string]*row{}
	self := r.selfTimes()
	var all time.Duration
	for i := range r.spans {
		l := r.spans[i].layer()
		if rows[l] == nil {
			rows[l] = &row{}
		}
		rows[l].calls++
		rows[l].self += self[i]
		all += self[i]
		// Total counts a layer's outermost spans only, so recursion into
		// the same layer is not double-counted.
		if p := r.spans[i].parent; p < 0 || r.spans[p].layer() != l {
			rows[l].total += r.spans[i].dur()
		}
	}
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return rows[names[i]].self > rows[names[j]].self })
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %12s %12s %7s\n", "layer", "calls", "total_ms", "self_ms", "self_%")
	for _, n := range names {
		rw := rows[n]
		fmt.Fprintf(&b, "%-12s %8d %12.3f %12.3f %7.2f\n", n, rw.calls,
			float64(rw.total)/1e6, float64(rw.self)/1e6, 100*float64(rw.self)/float64(all))
	}
	return b.String()
}

// writeTrace writes the spans as Chrome trace_event JSON (open it in
// chrome://tracing or ui.perfetto.dev) and appends the self-time table to the
// run's detail lines.
func writeTrace(r *recorder, path string, o *outcome) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	enc := json.NewEncoder(w)
	_, _ = w.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	for i, s := range r.spans {
		if i > 0 {
			_, _ = w.WriteString(",")
		}
		args := map[string]any{"id": s.id, "parent": s.parent, "index": i}
		if s.events > 0 {
			args["events"] = s.events
		}
		if err := enc.Encode(event{Name: s.name, Cat: s.layer(), Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.dur()) / 1e3, Pid: 1, Tid: 1, Args: args}); err != nil {
			f.Close()
			return err
		}
	}
	_, _ = w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	o.note("trace: %d spans written to %s", len(r.spans), path)
	o.details = append(o.details, strings.Split(strings.TrimRight(r.selfTable(), "\n"), "\n")...)
	return nil
}
