package simserver

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"testing"
)

// smallCampaign is a fast campaign job for tests: 2 dies over one scheme
// and a two-point grid.
func smallCampaign() JobRequest {
	return JobRequest{
		Kind:          KindCampaign,
		Dies:          2,
		Workloads:     []string{"xsbench"},
		Schemes:       []string{"killi-1:64"},
		Voltages:      []float64{0.625, 0.650},
		RequestsPerCU: 200,
	}
}

func TestSubmitCampaign(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	res, err := s.Submit(ctx, smallCampaign())
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindCampaign || res.Campaign == nil {
		t.Fatalf("degenerate campaign result: %+v", res)
	}
	c := res.Campaign
	if c.Dies != 2 || len(c.Cells) != 2 || len(c.Vmin) != 1 {
		t.Fatalf("campaign shape: dies=%d cells=%d vmin=%d, want 2/2/1", c.Dies, len(c.Cells), len(c.Vmin))
	}
	if c.Cells[0].Dies != 2 {
		t.Fatalf("cell aggregated %d dies, want 2", c.Cells[0].Dies)
	}

	// An identical re-submission is served from the retained registry with
	// the identical aggregates.
	again, err := s.Submit(ctx, smallCampaign())
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("identical repeat campaign did not hit the retained registry")
	}
	if !reflect.DeepEqual(again.Campaign, res.Campaign) {
		t.Fatal("retained campaign result diverges from the original")
	}
}

// TestCampaignDieCache pins that campaign jobs honor the server's result
// store at the die grain: with retention disabled (so the registry cannot
// answer), an identical re-submission streams whole-die records from the
// cache, reports Cached, and returns identical aggregates.
func TestCampaignDieCache(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, CacheDir: t.TempDir(), RetainJobs: -1})
	ctx := context.Background()

	cold, err := s.Submit(ctx, smallCampaign())
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached || cold.Campaign.CachedDies != 0 {
		t.Fatalf("cold campaign reported cache hits: %+v", cold.Campaign.CachedDies)
	}
	warm, err := s.Submit(ctx, smallCampaign())
	if err != nil {
		t.Fatal(err)
	}
	if warm.Coalesced {
		t.Fatal("sequential submissions cannot coalesce")
	}
	if !warm.Cached {
		t.Fatal("warm campaign not marked cached despite a full die-cache run")
	}
	if warm.Campaign.CachedDies != 2 {
		t.Fatalf("warm campaign CachedDies = %d, want 2", warm.Campaign.CachedDies)
	}
	// The aggregates must be bit-identical; only execution metadata may
	// differ between the passes.
	a, b := *cold.Campaign, *warm.Campaign
	a.ElapsedSeconds, a.DiesPerSecond, a.CachedDies, a.ResumedDies, a.CellCacheHits = 0, 0, 0, 0, 0
	b.ElapsedSeconds, b.DiesPerSecond, b.CachedDies, b.ResumedDies, b.CellCacheHits = 0, 0, 0, 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatal("die-cache campaign aggregates diverge from the cold run")
	}
}

// TestCampaignKeyCanonical pins that defaults and explicit values produce
// the same content address: a campaign written tersely coalesces with its
// fully spelled-out twin, and execution knobs stay out of the key.
func TestCampaignKeyCanonical(t *testing.T) {
	terse := JobRequest{Kind: KindCampaign, Dies: 50}
	full := JobRequest{
		Kind:          KindCampaign,
		Dies:          50,
		Workloads:     []string{"xsbench"},
		Schemes:       []string{"killi-1:64", "msecc"},
		Voltages:      []float64{0.700, 0.675, 0.650, 0.625, 0.600, 0.575}, // unsorted on purpose
		Seed:          1,
		RequestsPerCU: 2000,
		PassThreshold: 1.10,
		Shards:        2,  // execution knob: excluded from the key
		Parallelism:   -1, // execution knob: excluded from the key
	}
	a, err := terse.normalized(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := full.normalized(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.key() != b.key() {
		t.Fatalf("terse and explicit campaign keys differ:\n%s\n%s", a.key(), b.key())
	}
	other := terse
	other.Dies = 51
	c, err := other.normalized(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c.key() == a.key() {
		t.Fatal("campaigns with different die counts share a key")
	}
}

func TestCampaignValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	for name, req := range map[string]JobRequest{
		"no dies":                {Kind: KindCampaign},
		"campaign with workload": {Kind: KindCampaign, Dies: 2, Workload: "xsbench"},
		"campaign with scheme":   {Kind: KindCampaign, Dies: 2, Scheme: "msecc"},
		"campaign with voltage":  {Kind: KindCampaign, Dies: 2, Voltage: 0.625},
		"campaign with epoch":    {Kind: KindCampaign, Dies: 2, EpochCycles: 4096},
		"bad scheme list":        {Kind: KindCampaign, Dies: 2, Schemes: []string{"nope"}},
		"bad workload list":      {Kind: KindCampaign, Dies: 2, Workloads: []string{"nope"}},
		"duplicate voltages":     {Kind: KindCampaign, Dies: 2, Voltages: []float64{0.6, 0.6}},
		"silly threshold":        {Kind: KindCampaign, Dies: 2, PassThreshold: 0.5},
		"NaN threshold":          {Kind: KindCampaign, Dies: 2, PassThreshold: math.NaN()},
		"infinite threshold":     {Kind: KindCampaign, Dies: 2, PassThreshold: math.Inf(1)},
		"run with dies":          {Kind: KindRun, Workload: "xsbench", Scheme: "msecc", Dies: 5},
		"sweep with schemes":     {Kind: KindSweep, Schemes: []string{"msecc"}},
		"sweep with threshold":   {Kind: KindSweep, PassThreshold: 1.2},
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

// TestCampaignStream exercises GET /v1/campaign end to end: progress events
// arrive in order, the stream ends with result and done, and the result
// carries the aggregated campaign.
func TestCampaignStream(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/campaign?dies=4&schemes=killi-1:64&voltages=0.625,0.650&requests=200")
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
	if events["progress"] < 1 {
		t.Fatalf("%d progress events, want at least 1", events["progress"])
	}
	if events["result"] != 1 || events["done"] != 1 {
		t.Fatalf("stream ended with result=%d done=%d, want 1/1", events["result"], events["done"])
	}

	// Bad params are a plain 400, not a broken stream.
	for _, q := range []string{
		"/v1/campaign?dies=0",
		"/v1/campaign?dies=4&voltages=abc",
		"/v1/campaign?dies=4&threshold=zero",
		"/v1/campaign?dies=4&threshold=NaN",
		"/v1/campaign?dies=4&threshold=Inf",
	} {
		resp, err := http.Get(ts.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestEquivalentVoltageQueries holds /v1/campaign's voltages query to
// killi-fleet's TestEquivalentVoltageSpellings table: every equivalent
// spelling of a grid gives one normalized grid and one job key, and a
// spelling that repeats a voltage is rejected.
func TestEquivalentVoltageQueries(t *testing.T) {
	job := func(voltages string) (JobRequest, error) {
		q := url.Values{"dies": {"4"}, "voltages": {voltages}}
		req, err := campaignRequest(httptest.NewRequest(http.MethodGet, "/v1/campaign?"+q.Encode(), nil))
		if err != nil {
			return req, err
		}
		return req.normalized(1, 8)
	}
	want, err := job("0.6,0.65")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"0.65,0.6", "0.60,0.650", " 0.6 , 0.65 ", "0.650,\t0.600", "6e-1,0.65", "0.6,,0.65,"} {
		got, err := job(s)
		if err != nil {
			t.Errorf("%q: %v", s, err)
			continue
		}
		if !reflect.DeepEqual(got.Voltages, want.Voltages) || got.key() != want.key() {
			t.Errorf("%q: grid %v key %s, want grid %v key %s", s, got.Voltages, got.key(), want.Voltages, want.key())
		}
	}
	for _, s := range []string{"0.6,0.60,0.65", "0.65,0.6,0.650"} {
		if got, err := job(s); err == nil {
			t.Errorf("%q repeats a voltage but normalizes to grid %v", s, got.Voltages)
		}
	}
}
