package main

import (
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"killi/internal/campaign"
	"killi/internal/experiments"
	"killi/internal/simserver"
)

func TestPercentileAndSampleCounts(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 50.5}, {0.99, 99.01}, {1, 100}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples is not NaN")
	}
	// p99 is reportable (>= 10 samples beyond it) from 1000 samples on.
	for _, c := range []struct{ n, want int }{{1000, 10}, {999, 9}, {2500, 25}, {100, 1}} {
		if got := beyond(c.n, 0.99); got != c.want {
			t.Errorf("beyond(%d, 0.99) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestWindowRates(t *testing.T) {
	stamps := []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 5 * time.Second}
	got := windowRates(stamps, 2)
	want := []float64{1, 2.0 / 3, 2.0 / 3}
	if len(got) != len(want) {
		t.Fatalf("windowRates = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("windowRates = %v, want %v", got, want)
		}
	}
}

func TestOutcomeCountsFailedChecks(t *testing.T) {
	o := newOutcome()
	o.op(true)
	o.op(false)
	if o.check(true, "fine") != true || o.check(false, "broken %d", 7) != false {
		t.Fatal("check returns its condition")
	}
	if o.attempted != 2 || o.failed != 2 || len(o.details) != 1 || o.details[0] != "CHECK FAILED: broken 7" {
		t.Fatalf("outcome = %+v", o)
	}
}

// fleetResults builds a cold/regrid pair that passes checkFleet for `dies`
// dies.
func fleetResults(dies int) (cold, regrid *campaign.Result) {
	cold = &campaign.Result{Dies: dies, Cells: []campaign.Cell{
		{Workload: "xsbench", Scheme: "msecc", Classes: "persistent", Voltage: 0.6, Dies: int64(dies), NormMean: 1.01},
	}}
	regrid = &campaign.Result{Dies: dies, Cells: append(append([]campaign.Cell(nil), cold.Cells...),
		campaign.Cell{Workload: "xsbench", Scheme: "msecc", Classes: "persistent", Voltage: 0.675, Dies: int64(dies)}),
		CellCacheHits: int64(dies * len(fleetWorkloads) * (1 + len(fleetSchemes)*len(fleetGrid)))}
	return cold, regrid
}

func writeJournal(t *testing.T, records int) string {
	t.Helper()
	dir := t.TempDir()
	text := "{\"type\":\"header\"}\n"
	for i := 0; i < records; i++ {
		text += "{}\n"
	}
	if err := os.WriteFile(filepath.Join(dir, "campaign-0123456789abcdef.jsonl"), []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestFleetChecksTrip(t *testing.T) {
	const dies = 4
	cold, regrid := fleetResults(dies)
	o := newOutcome()
	checkFleet(o, cold, regrid, dies, writeJournal(t, dies))
	if !o.check(checkWarm(o, cold, 0, jsonl(cold)), "") || o.failed != 0 {
		t.Fatalf("untampered fleet outputs failed: %v", o.details)
	}
	tamper := map[string]func(cold, regrid *campaign.Result) (journal int, warm *campaign.Result){
		"regrid cell hits": func(_, r *campaign.Result) (int, *campaign.Result) { r.CellCacheHits--; return dies, nil },
		"old cell moved":   func(_, r *campaign.Result) (int, *campaign.Result) { r.Cells[0].NormMean += 1e-12; return dies, nil },
		"journal short":    func(_, _ *campaign.Result) (int, *campaign.Result) { return dies - 1, nil },
		"warm not cached": func(c, _ *campaign.Result) (int, *campaign.Result) {
			w := *c
			w.CachedDies = dies - 1
			return dies, &w
		},
		"warm output differs": func(c, _ *campaign.Result) (int, *campaign.Result) {
			w := *c
			w.CachedDies = dies
			w.Cells = []campaign.Cell{c.Cells[0]}
			w.Cells[0].Yield = 0.5
			return dies, &w
		},
	}
	for name, f := range tamper {
		cold, regrid := fleetResults(dies)
		journal, warm := f(cold, regrid)
		o := newOutcome()
		checkFleet(o, cold, regrid, dies, writeJournal(t, journal))
		if warm != nil {
			checkWarm(o, warm, dies, jsonl(cold))
		}
		if o.failed == 0 {
			t.Errorf("%s: no check tripped", name)
		}
	}
}

func sweepRows() []experiments.Row {
	var rows []experiments.Row
	for _, w := range catalogNames() {
		r := experiments.Row{Workload: w, BaselineCycles: 1000, BaselineMPKI: 3.5,
			Normalized: map[string]float64{}, MPKI: map[string]float64{}, Disabled: map[string]int{}}
		for _, s := range schemeNames() {
			r.Normalized[s], r.MPKI[s], r.Disabled[s] = 1.01, 3.6, 2
		}
		rows = append(rows, r)
	}
	return rows
}

func TestSweepChecksTrip(t *testing.T) {
	o := newOutcome()
	if !checkRows(o, 0, sweepRows(), len(catalogNames())) || o.failed != 0 {
		t.Fatalf("untampered rows failed: %v", o.details)
	}
	short := sweepRows()[1:]
	missing := sweepRows()
	delete(missing[3].Normalized, "flair")
	for name, rows := range map[string][]experiments.Row{"row missing": short, "scheme missing": missing} {
		o := newOutcome()
		if checkRows(o, 0, rows, len(catalogNames())) || o.failed == 0 {
			t.Errorf("%s: no check tripped", name)
		}
	}
	// The replica comparison is textual at %.17g: one ulp shows.
	moved := sweepRows()
	moved[5].Normalized["msecc"] = math.Nextafter(moved[5].Normalized["msecc"], 2)
	if rowsText(moved) == rowsText(sweepRows()) {
		t.Error("rowsText hides a one-ulp change")
	}
}

func TestDaemonChecksTrip(t *testing.T) {
	replies := func() []reply {
		s := newJobStream(3, 500)
		var out []reply
		for i := 0; i < 200; i++ {
			it := s.next()
			out = append(out, reply{item: it, status: http.StatusOK, result: canonicalRun(&simserver.RunResult{Cycles: uint64(1000 + it.key)})})
		}
		return out
	}
	distinct := func(rs []reply) int64 {
		keys := map[int]bool{}
		for _, r := range rs {
			keys[r.item.key] = true
		}
		return int64(len(keys))
	}
	good := replies()
	o := newOutcome()
	checkReplies(o, good, simserver.Stats{Executed: distinct(good)})
	if o.failed != 0 || o.attempted != len(good) {
		t.Fatalf("untampered replies failed: %v", o.details)
	}
	cases := map[string]func([]reply, *simserver.Stats){
		"429": func(rs []reply, _ *simserver.Stats) { rs[50].status, rs[50].result = http.StatusTooManyRequests, "" },
		"500": func(rs []reply, _ *simserver.Stats) { rs[7].status, rs[7].result = http.StatusInternalServerError, "" },
		"repeat differs": func(rs []reply, _ *simserver.Stats) {
			for i := len(rs) - 1; ; i-- {
				if rs[i].item.kind == kindRepeat {
					rs[i].result += "x"
					return
				}
			}
		},
		"executed twice":   func(_ []reply, st *simserver.Stats) { st.Executed++ },
		"rejected request": func(_ []reply, st *simserver.Stats) { st.Rejected = 1 },
	}
	for name, tamper := range cases {
		rs := replies()
		st := simserver.Stats{Executed: distinct(rs)}
		tamper(rs, &st)
		o := newOutcome()
		checkReplies(o, rs, st)
		if o.failed == 0 {
			t.Errorf("%s: no check tripped", name)
		}
	}
	byKey := checkReplies(newOutcome(), good, simserver.Stats{})
	if _, ok := leadingDigest(byKey); !ok {
		t.Error("leading digest unavailable for a full stream")
	}
	delete(byKey, 3)
	if _, ok := leadingDigest(byKey); ok {
		t.Error("leading digest computed with a leading job missing")
	}
}

func TestJobStreamDeterministic(t *testing.T) {
	take := func(seed uint64, n int) []streamItem {
		s := newJobStream(seed, 1500)
		out := make([]streamItem, n)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	a, b := take(42, 5000), take(42, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different streams")
	}
	if reflect.DeepEqual(a[:100], take(43, 100)) {
		t.Fatal("different seeds gave the same stream")
	}
	kinds := map[string]int{}
	distinct := 0
	for i, it := range a {
		kinds[it.kind]++
		switch it.kind {
		case kindFirst, kindPair:
			if it.key != distinct {
				t.Fatalf("item %d: new job has key %d, want %d", i, it.key, distinct)
			}
			distinct++
		case kindRepeat:
			if it.key >= distinct-repeatLag || it.key < distinct-repeatWindow {
				t.Fatalf("item %d: repeat of job %d outside the window of %d jobs", i, it.key, distinct)
			}
			if !reflect.DeepEqual(it.req, a[firstIndex(a, it.key)].req) {
				t.Fatalf("item %d: repeat of job %d is a different request", i, it.key)
			}
		}
	}
	if a[0].kind != kindFirst || kinds[kindPair] == 0 || kinds[kindRepeat] == 0 {
		t.Fatalf("stream kinds %v", kinds)
	}
	if share := float64(kinds[kindFirst]+kinds[kindPair]) / float64(len(a)); share < 0.25 || share > 0.35 {
		t.Errorf("first-seen share %.3f, want about 0.3", share)
	}
}

func firstIndex(items []streamItem, key int) int {
	for i, it := range items {
		if it.key == key {
			return i
		}
	}
	return -1
}

// TestDispatcherSendsPairsTwice checks that two clients see every pair item
// and every other item once, and that the dispatcher ends at its limit.
func TestDispatcherSendsPairsTwice(t *testing.T) {
	const items = 600
	d := newDispatcher(newJobStream(9, 500), items)
	var mu sync.Mutex
	count := map[int]int{}
	kind := map[int]string{}
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer d.halt()
			for {
				it, ok := d.take()
				if !ok {
					return
				}
				mu.Lock()
				// Repeats reuse keys, so count new jobs and repeats apart.
				k := it.key
				if it.kind == kindRepeat {
					k = -1 - len(count)
				}
				count[k]++
				kind[k] = it.kind
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sent := 0
	for k, n := range count {
		want := 1
		if kind[k] == kindPair {
			want = 2
		}
		if n != want {
			t.Errorf("%s item %d sent %d times, want %d", kind[k], k, n, want)
		}
		sent += n
	}
	if sent < items {
		t.Errorf("%d requests for %d items", sent, items)
	}
}
