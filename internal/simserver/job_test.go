package simserver

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/url"
	"reflect"
	"testing"

	"killi/internal/faultmodel"
)

// TestJobKeyGolden pins the content address of normalized requests of every
// kind, as literal hex: a refactor of the normalization path must leave the
// wire format's keys byte-identical, or retained results, coalescing and
// every client's ETags silently change meaning.
func TestJobKeyGolden(t *testing.T) {
	const terseRun = "e4ad223e61187ff5ac966004e2706d15dca201c5a13ed01a5813c392aa42535c"
	for _, tc := range []struct {
		name string
		req  JobRequest
		want string
	}{
		{"terse run", JobRequest{Kind: KindRun, Workload: "xsbench", Scheme: "killi-1:64"}, terseRun},
		{"run spelled out", JobRequest{
			Kind: KindRun, Workload: "xsbench", Scheme: "killi-1:64",
			Voltage: 0.625, RequestsPerCU: 4000, Seed: 1, WarmupKernels: 0,
			Shards: 2, Parallelism: 3, EpochCycles: 4096, FaultClasses: []string{""},
		}, terseRun},
		{"persistent run", JobRequest{Kind: KindRun, Workload: "xsbench", Scheme: "killi-1:64",
			FaultClasses: []string{"persistent"}}, terseRun},
		{"mixed run", JobRequest{Kind: KindRun, Workload: "fft", Scheme: "killi-olsc2-1:64",
			Voltage: 0.6, RequestsPerCU: 700, Seed: 9, WarmupKernels: 1,
			FaultClasses: []string{" mixed:t=1e-6,i=0.20@0.5 "}}, "8b1197c348abba2a5eccddcd98a4439f0aab172081052d3eea57ead3d12dfe69"},
		{"terse sweep", JobRequest{Kind: KindSweep}, "d4a6c8613d486812683e038248b8a934373f222c27f0a27f11849c6c0fb66a87"},
		{"subset sweep", JobRequest{Kind: KindSweep, Workloads: []string{"fft", "xsbench"},
			Voltage: 0.575, RequestsPerCU: 500, Seed: 7, WarmupKernels: 2}, "433b1a4019d88059f9a0a871c8de77406a8f1feb660eec5dfd0e2efd846062f5"},
		{"terse campaign", JobRequest{Kind: KindCampaign, Dies: 4}, "934519f203d7199c66c49161c168b203df9fd2e4d0b641448e592f7989c83cdc"},
		{"campaign spelled out", JobRequest{Kind: KindCampaign, Dies: 4,
			Voltages: []float64{0.65, 0.6}, Schemes: []string{"killi-1:32"},
			FaultClasses: []string{"persistent", "mixed:a=0.1@0.05"}, WarmupKernels: 1}, "c6e6a97bb771f778297575baeb4d58f2252be3e41c83298018012c0c01f08122"},
	} {
		norm, err := tc.req.normalized(1, 8)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got := norm.key(); got != tc.want {
			t.Errorf("%s: key %s, want %s", tc.name, got, tc.want)
		}
	}
}

// FuzzJobNormalize drives the daemon's request boundary with arbitrary
// input: a POST /v1/jobs body decoded as handleJob decodes it, and a query
// string parsed as /v1/observe and /v1/campaign parse theirs (only a query
// can carry a NaN). Normalization never panics; a request that normalizes
// re-normalizes to itself with the same key; every normalized run or
// sweep voltage and every campaign grid point passes the voltage rule; and
// every normalized campaign's pass threshold is finite and above 1.
func FuzzJobNormalize(f *testing.F) {
	f.Add([]byte(`{"kind":"run","workload":"xsbench","scheme":"killi-1:64"}`), "workload=xsbench&scheme=killi-1:64&voltage=NaN")
	f.Add([]byte(`{"kind":"sweep","workloads":["fft"],"fault_classes":[" mixed:t=1e-6"]}`), "dies=3&voltages=0.6,nan&requests=10")
	f.Add([]byte(`{"kind":"campaign","dies":2,"voltages":[0.7,0.6],"fault_classes":["persistent"]}`), "dies=2&voltages=0.7,0.6&threshold=1.2")
	f.Add([]byte(`{"kind":"campaign","dies":1,"pass_threshold":1e308}`), "dies=2&threshold=NaN")
	f.Add([]byte(`{"kind":"run","workload":"fft","scheme":"msecc","voltage":2.5,"warmup_kernels":-1}`), "workload=fft&scheme=msecc&voltage=-0&warmup=3&epoch=5")
	f.Fuzz(func(t *testing.T, body []byte, query string) {
		var reqs []JobRequest
		var req JobRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) == nil {
			reqs = append(reqs, req)
		}
		hr := &http.Request{URL: &url.URL{RawQuery: query}}
		if req, err := observeRequest(hr); err == nil {
			reqs = append(reqs, req)
		}
		if req, err := campaignRequest(hr); err == nil {
			reqs = append(reqs, req)
		}
		for _, req := range reqs {
			norm, err := req.normalized(2, 4)
			if err != nil {
				continue
			}
			again, err := norm.normalized(2, 4)
			if err != nil {
				t.Fatalf("%+v normalizes to %+v, which fails to re-normalize: %v", req, norm, err)
			}
			if !reflect.DeepEqual(again, norm) || again.key() != norm.key() {
				t.Fatalf("normalizing %+v twice gives %+v, once %+v", req, again, norm)
			}
			volts := norm.Voltages
			if norm.Kind != KindCampaign {
				volts = []float64{norm.Voltage}
			}
			for _, v := range volts {
				if err := faultmodel.CheckVoltage(v); err != nil {
					t.Fatalf("%+v normalizes to %+v: %v", req, norm, err)
				}
			}
			if th := norm.PassThreshold; norm.Kind == KindCampaign && (!(th > 1) || math.IsInf(th, 0)) {
				t.Fatalf("%+v normalizes to a campaign with pass threshold %v", req, th)
			}
		}
	})
}
