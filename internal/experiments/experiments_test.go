package experiments

import (
	"context"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"killi/internal/gpu"
	"killi/internal/obs"
	"killi/internal/protection"
)

// smallGPU shrinks the L2 for fast sweeps.
func smallGPU() *gpu.Config {
	cfg := gpu.DefaultConfig()
	cfg.L2Bytes = 128 << 10
	return &cfg
}

func TestSchemesCatalog(t *testing.T) {
	specs := Schemes()
	if len(specs) != 3+len(KilliRatios) {
		t.Fatalf("scheme catalog has %d entries", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.Name] {
			t.Fatalf("duplicate scheme %q", s.Name)
		}
		seen[s.Name] = true
		inst := s.New()
		if inst == nil {
			t.Fatalf("%s factory returned nil", s.Name)
		}
		// Factories must return fresh instances.
		if s.New() == inst {
			t.Fatalf("%s factory reuses instances", s.Name)
		}
	}
	for _, want := range []string{"dected", "flair", "msecc", "killi-1:16", "killi-1:256"} {
		if !seen[want] {
			t.Fatalf("scheme %q missing", want)
		}
	}
}

func TestRunProducesCompleteRows(t *testing.T) {
	rows, err := Run(context.Background(), Config{
		RequestsPerCU: 800,
		Workloads:     []string{"nekbone", "xsbench"},
		GPU:           smallGPU(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.BaselineCycles == 0 {
			t.Fatalf("%s: no baseline cycles", r.Workload)
		}
		if len(r.Normalized) != len(Schemes()) {
			t.Fatalf("%s: %d scheme results", r.Workload, len(r.Normalized))
		}
		for name, norm := range r.Normalized {
			if norm < 0.90 || norm > 3 {
				t.Errorf("%s/%s: normalized time %.3f implausible", r.Workload, name, norm)
			}
			if r.MPKI[name] < 0 {
				t.Errorf("%s/%s: negative MPKI", r.Workload, name)
			}
		}
	}
}

func TestRunUnknownWorkloadErrors(t *testing.T) {
	if _, err := Run(context.Background(), Config{Workloads: []string{"nope"}, GPU: smallGPU(), RequestsPerCU: 10}); err == nil {
		t.Fatal("unknown workload did not error")
	}
}

func TestDefaultsFillIn(t *testing.T) {
	cfg, err := Config{}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Voltage != 0.625 || cfg.RequestsPerCU == 0 || cfg.Seed == 0 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if len(cfg.Workloads) != 10 {
		t.Fatalf("default workloads = %d, want the full catalog", len(cfg.Workloads))
	}
}

func TestSchemeNamesStable(t *testing.T) {
	r := Row{Normalized: map[string]float64{"b": 1, "a": 1, "c": 1}}
	names := r.SchemeNames()
	if len(names) != 3 || names[0] != "a" || names[2] != "c" {
		t.Fatalf("names %v", names)
	}
}

func TestRunOne(t *testing.T) {
	res, err := RunOne(context.Background(), Config{RequestsPerCU: 500, GPU: smallGPU()},
		"lulesh", func() protection.Scheme { return protection.NewSECDEDPerLine() }, 0.625)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.Instructions == 0 {
		t.Fatal("degenerate RunOne result")
	}
	if _, err := RunOne(context.Background(), Config{GPU: smallGPU(), RequestsPerCU: 10},
		"nope", func() protection.Scheme { return protection.NewNone() }, 1.0); err == nil {
		t.Fatal("unknown workload did not error")
	}
}

func TestSchemeByName(t *testing.T) {
	for _, name := range []string{"none", "secded", "dected", "flair", "msecc", "killi-1:64", "killi-dected-1:16"} {
		s, err := SchemeByName(name)
		if err != nil {
			t.Fatalf("SchemeByName(%q): %v", name, err)
		}
		if name != "none" && name != "secded" && name != "dected" && s.Name() == "" {
			t.Fatalf("%q: empty scheme name", name)
		}
	}
	for _, bad := range []string{
		"", "killi", "unknown",
		"killi-1:0", "killi-1:-16", "killi-1:x",
		"killi-1:16xyz", "killi-1:16 ", "killi-dected-1:32extra",
		"killi-olsc0-1:8", "killi-olsc11-1:2junk", "killi-olsc-1:8", "killi-olscx-1:8",
	} {
		if _, err := SchemeByName(bad); err == nil {
			t.Fatalf("SchemeByName(%q) did not error", bad)
		}
	}
}

// TestSchemeByNameRoundTripsCatalog pins the contract the CLI relies on:
// every name the sweep produces parses back to a scheme of that name.
func TestSchemeByNameRoundTripsCatalog(t *testing.T) {
	for _, spec := range Schemes() {
		s, err := SchemeByName(spec.Name)
		if err != nil {
			t.Fatalf("SchemeByName(%q): %v", spec.Name, err)
		}
		if got, want := s.Name(), spec.New().Name(); got != want {
			t.Fatalf("SchemeByName(%q).Name() = %q, want %q", spec.Name, got, want)
		}
	}
}

func TestSplitList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{" , ,", nil},
		{"fft", []string{"fft"}},
		{"fft, xsbench", []string{"fft", "xsbench"}},
		{" fft ,,xsbench, ", []string{"fft", "xsbench"}},
	}
	for _, c := range cases {
		got := SplitList(c.in)
		if len(got) != len(c.want) {
			t.Fatalf("SplitList(%q) = %v, want %v", c.in, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("SplitList(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

// FuzzSplitList checks the CLI list splitter on arbitrary input: it never
// panics, never returns an empty or space-padded entry, and its output
// joined with "," splits back to the same list.
func FuzzSplitList(f *testing.F) {
	for _, s := range []string{"", " , ,", "fft", "fft, xsbench", " fft ,,xsbench, ", "0.6,\t0.65\n", "a b,c", " x ,\xff"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got := SplitList(s)
		for _, p := range got {
			if p == "" || p != strings.TrimSpace(p) || strings.Contains(p, ",") {
				t.Fatalf("SplitList(%q) returned entry %q", s, p)
			}
		}
		again := SplitList(strings.Join(got, ","))
		if len(again) != len(got) {
			t.Fatalf("SplitList(%q) = %q, but its join splits to %q", s, got, again)
		}
		for i := range got {
			if again[i] != got[i] {
				t.Fatalf("SplitList(%q) = %q, but its join splits to %q", s, got, again)
			}
		}
	})
}

// TestParallelMatchesSerial pins the worker pool's core guarantee: any
// parallelism produces bit-for-bit the rows of the serial sweep.
func TestParallelMatchesSerial(t *testing.T) {
	cfg := Config{
		RequestsPerCU: 600,
		Workloads:     []string{"nekbone", "xsbench"},
		WarmupKernels: 1,
		GPU:           smallGPU(),
	}
	serial := cfg
	serial.Parallelism = 1
	par := cfg
	par.Parallelism = 8
	want, err := Run(context.Background(), serial)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(context.Background(), par)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("parallel rows %d, serial %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.Workload != w.Workload || g.BaselineCycles != w.BaselineCycles || g.BaselineMPKI != w.BaselineMPKI {
			t.Fatalf("row %d diverges: serial %+v parallel %+v", i, w, g)
		}
		for _, n := range w.SchemeNames() {
			if g.Normalized[n] != w.Normalized[n] || g.MPKI[n] != w.MPKI[n] || g.Disabled[n] != w.Disabled[n] {
				t.Fatalf("%s/%s diverges: serial (%v, %v, %d) parallel (%v, %v, %d)",
					w.Workload, n, w.Normalized[n], w.MPKI[n], w.Disabled[n],
					g.Normalized[n], g.MPKI[n], g.Disabled[n])
			}
		}
	}
}

func TestSchemeByNameOLSC(t *testing.T) {
	s, err := SchemeByName("killi-olsc11-1:2")
	if err != nil || s.Name() != "killi-olsc11-1:2" {
		t.Fatalf("olsc scheme: %v / %v", s, err)
	}
}

// probeCtx records whether anything consulted it. Every simulation polls
// its context before each kernel and the sweep's pool before dispatching,
// so an untouched probe means nothing was simulated.
type probeCtx struct {
	context.Context
	used atomic.Bool
}

func (c *probeCtx) Err() error {
	c.used.Store(true)
	return c.Context.Err()
}

func (c *probeCtx) Done() <-chan struct{} {
	c.used.Store(true)
	return c.Context.Done()
}

// TestEntryPointsRejectBadInput pins that every entry point normalizes its
// inputs through Config.Normalized before simulating: a voltage outside
// (0, 2] x VDD (NaN included), or a negative trace length, warmup or scrub
// count, is an error and simulates nothing. A single run's explicit voltage
// of 0 is an error too; only Run reads its voltage from Config, where 0 is
// the documented default, so Run has no 0 case.
func TestEntryPointsRejectBadInput(t *testing.T) {
	newScheme, err := SchemeFactoryByName("killi-1:64")
	if err != nil {
		t.Fatal(err)
	}
	entries := []struct {
		name string
		run  func(ctx context.Context, cfg Config, v float64) error
	}{
		{"Run", func(ctx context.Context, cfg Config, v float64) error {
			cfg.Voltage = v
			_, err := Run(ctx, cfg)
			return err
		}},
		{"RunOne", func(ctx context.Context, cfg Config, v float64) error {
			_, err := RunOne(ctx, cfg, "xsbench", newScheme, v)
			return err
		}},
		{"RunOneNamed", func(ctx context.Context, cfg Config, v float64) error {
			_, err := RunOneNamed(ctx, cfg, "xsbench", "killi-1:64", v)
			return err
		}},
		{"RunOneObserved", func(ctx context.Context, cfg Config, v float64) error { // the observed single run
			_, err := observedRun(ctx, cfg, "xsbench", "killi-1:64", v, obs.NewCollector())
			return err
		}},
		{"RunMisclass", func(ctx context.Context, cfg Config, v float64) error {
			_, err := RunMisclass(ctx, cfg, "xsbench", "killi-1:64", v)
			return err
		}},
	}
	cases := []struct {
		name    string
		voltage float64
		edit    func(*Config)
	}{
		{"voltage NaN", math.NaN(), nil},
		{"voltage 0", 0, nil},
		{"voltage -0.5", -0.5, nil},
		{"voltage 2.5", 2.5, nil},
		{"warmup -1", 0.625, func(c *Config) { c.WarmupKernels = -1 }},
		{"requests -1", 0.625, func(c *Config) { c.RequestsPerCU = -1 }},
		{"scrub -1", 0.625, func(c *Config) { c.ScrubKernels = -1 }},
	}
	base := func(t *testing.T) Config {
		return Config{RequestsPerCU: 50, Seed: 1, GPU: smallGPU(), Workloads: []string{"xsbench"}, CacheDir: t.TempDir()}
	}
	for _, e := range entries {
		// The control: valid input simulates, and the probe sees it.
		ctx := &probeCtx{Context: context.Background()}
		if err := e.run(ctx, base(t), 0.625); err != nil || !ctx.used.Load() {
			t.Fatalf("%s on valid input: err %v, context consulted %v", e.name, err, ctx.used.Load())
		}
		for _, tc := range cases {
			if e.name == "Run" && tc.voltage == 0 {
				continue
			}
			t.Run(e.name+"/"+tc.name, func(t *testing.T) {
				cfg := base(t)
				if tc.edit != nil {
					tc.edit(&cfg)
				}
				ctx := &probeCtx{Context: context.Background()}
				err := e.run(ctx, cfg, tc.voltage)
				if err == nil {
					t.Error("no error")
				} else if strings.Contains(err.Error(), "\n") {
					t.Errorf("multi-line error %q", err)
				}
				if ctx.used.Load() {
					t.Error("simulated before rejecting its input")
				}
			})
		}
	}
}
