package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"killi/internal/faultmodel"
	"killi/internal/gpu"
	"killi/internal/obs"
)

// TestFaultClassSyntaxSingleSource pins the fault-class grammar's
// single-source-of-truth property, mirroring TestSchemeSyntaxSingleSource:
// README.md must quote faultmodel.ClassSyntax verbatim rather than
// paraphrasing it, so the documented grammar can never drift from the
// parser.
func TestFaultClassSyntaxSingleSource(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatalf("README.md unreadable: %v", err)
	}
	if syntax := faultmodel.ClassSyntax(); !strings.Contains(string(readme), syntax) {
		t.Errorf("README.md does not quote the fault-class grammar %q verbatim", syntax)
	}
}

// misclassConfig is the small, fast configuration the misclassification
// tests share. Kernel count = warmups + 1.
func misclassConfig(classes string, scrub int) Config {
	return Config{
		RequestsPerCU: 2500,
		Seed:          1,
		GPU:           smallGPU(),
		WarmupKernels: 3,
		FaultClasses:  classes,
		ScrubKernels:  scrub,
	}
}

// TestRunMisclassGolden is the misclassification shape test: fixed inputs
// produce a deterministic row (pinned by running twice), the intermittent
// mix produces the nonzero misclassification the taxonomy predicts, and
// the persistent control stays misclassification-free on the false-trust
// side after training.
func TestRunMisclassGolden(t *testing.T) {
	ctx := context.Background()
	mixed, err := RunMisclass(ctx, misclassConfig("mixed:i=0.5@0.3", 0), "xsbench", "killi-1:64", 0.625)
	if err != nil {
		t.Fatal(err)
	}
	if mixed.Misclass.TrueFaulty == 0 {
		t.Fatal("no ground-truth faulty lines at 0.625V; the shape test measures nothing")
	}
	if mixed.Misclass.FalseTrust == 0 && mixed.Misclass.FalseDisable == 0 {
		t.Error("intermittent mix produced zero misclassification; dormant faults should fool the DFH")
	}
	if mixed.Classes != "mixed:i=0.5@0.3" {
		t.Errorf("row renders classes %q, want canonical spec", mixed.Classes)
	}
	again, err := RunMisclass(ctx, misclassConfig("mixed:i=0.5@0.3", 0), "xsbench", "killi-1:64", 0.625)
	if err != nil {
		t.Fatal(err)
	}
	if again != mixed {
		t.Errorf("RunMisclass not deterministic:\n first %+v\nsecond %+v", mixed, again)
	}

	persistent, err := RunMisclass(ctx, misclassConfig("", 0), "xsbench", "killi-1:64", 0.625)
	if err != nil {
		t.Fatal(err)
	}
	if persistent.Classes != "persistent" {
		t.Errorf("zero spec renders as %q, want \"persistent\"", persistent.Classes)
	}
	if persistent.TransientStrikes != 0 {
		t.Errorf("persistent run reports %d transient strikes", persistent.TransientStrikes)
	}

	if _, err := RunMisclass(ctx, misclassConfig("", 0), "xsbench", "secded", 0.625); err == nil {
		t.Error("RunMisclass accepted a scheme without DFH codes")
	}
	if _, err := RunMisclass(ctx, misclassConfig("mixed:bogus", 0), "xsbench", "killi-1:64", 0.625); err == nil {
		t.Error("RunMisclass accepted a malformed class spec")
	}
}

// TestRunMisclassScrubCounters checks the scrub plumbing end to end: with
// a scrub period set and an intermittent population, the scrubber actually
// tests lines between kernels and the counters land in the row.
func TestRunMisclassScrubCounters(t *testing.T) {
	row, err := RunMisclass(context.Background(), misclassConfig("mixed:i=0.6@0.3", 1),
		"xsbench", "killi-1:64", 0.625)
	if err != nil {
		t.Fatal(err)
	}
	if row.ScrubTests == 0 {
		t.Skip("no lines were disabled before any scrub; nothing to assert")
	}
	if row.ScrubReclaimed > row.ScrubTests {
		t.Fatalf("reclaimed %d > tested %d", row.ScrubReclaimed, row.ScrubTests)
	}
}

// TestSweepFaultClassParallelismInvariance extends the sweep's
// bit-identity contract to a classed population: the same mixed-class
// sweep produces identical rows serially and with a worker pool.
func TestSweepFaultClassParallelismInvariance(t *testing.T) {
	base := Config{
		RequestsPerCU: 600,
		Seed:          3,
		GPU:           smallGPU(),
		Workloads:     []string{"fft"},
		FaultClasses:  "mixed:i=0.3@0.5,t=2e-08",
		ScrubKernels:  1,
		WarmupKernels: 1,
	}
	serialCfg := base
	serialCfg.Parallelism = 1
	serial, err := Run(context.Background(), serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	parCfg := base
	parCfg.Parallelism = 4
	parallel, err := Run(context.Background(), parCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("row counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Workload != p.Workload || s.BaselineCycles != p.BaselineCycles {
			t.Fatalf("row %d baselines differ: %+v vs %+v", i, s, p)
		}
		for _, name := range s.SchemeNames() {
			if s.Normalized[name] != p.Normalized[name] || s.MPKI[name] != p.MPKI[name] ||
				s.Disabled[name] != p.Disabled[name] {
				t.Fatalf("scheme %s differs between serial and parallel", name)
			}
		}
	}

	if _, err := Run(context.Background(), Config{GPU: smallGPU(), RequestsPerCU: 10,
		Workloads: []string{"fft"}, FaultClasses: "mixed:nope"}); err == nil {
		t.Fatal("sweep accepted a malformed fault-class spec")
	}
}

// TestNominalClassSpecRule pins the two class-spec rules at nominal
// voltage. The single-run entry points drop cfg.FaultClasses at exactly
// 1.0 — a nominal run is the sweep's fault-free reference machine — so
// under a transient-bearing mix they must match the persistent run bit for
// bit. RunMisclass applies the spec at every voltage, so the same mix at
// 1.0 must show strikes there.
func TestNominalClassSpecRule(t *testing.T) {
	ctx := context.Background()
	const spec = "mixed:i=0.2@0.5,t=1e-6"
	cfg := func(classes string) Config {
		return Config{RequestsPerCU: 500, Seed: 1, GPU: smallGPU(), FaultClasses: classes}
	}
	newScheme, err := SchemeFactoryByName("killi-1:64")
	if err != nil {
		t.Fatal(err)
	}
	digest := func(res gpu.Result) uint64 {
		h := fnv.New64a()
		for _, n := range res.Counters.Names() {
			fmt.Fprintf(h, "%s=%d\n", n, res.Counters.Get(n))
		}
		fmt.Fprintf(h, "%+v\n", CacheableResult(res))
		return h.Sum64()
	}
	entries := []struct {
		name string
		run  func(c Config) (gpu.Result, error)
	}{
		{"RunOne", func(c Config) (gpu.Result, error) {
			return RunOne(ctx, c, "xsbench", newScheme, 1.0)
		}},
		{"RunOneNamed", func(c Config) (gpu.Result, error) {
			return RunOneNamed(ctx, c, "xsbench", "killi-1:64", 1.0)
		}},
		{"RunOneObserved", func(c Config) (gpu.Result, error) { // the observed single run
			return observedRun(ctx, c, "xsbench", "killi-1:64", 1.0, obs.NewCollector())
		}},
	}
	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			persistent, err := e.run(cfg(""))
			if err != nil {
				t.Fatal(err)
			}
			mixed, err := e.run(cfg(spec))
			if err != nil {
				t.Fatal(err)
			}
			if mixed.TransientStrikes != 0 {
				t.Errorf("nominal run under %s reports %d transient strikes, want 0", spec, mixed.TransientStrikes)
			}
			if got, want := digest(mixed), digest(persistent); got != want {
				t.Errorf("nominal run under %s digests %#x, persistent run %#x: the spec leaked into a 1.0 V run", spec, got, want)
			}
		})
	}
	t.Run("RunMisclass", func(t *testing.T) {
		row, err := RunMisclass(ctx, cfg(spec), "xsbench", "killi-1:64", 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if row.TransientStrikes == 0 {
			t.Errorf("RunMisclass at 1.0 V under %s reports no transient strikes: the spec was dropped", spec)
		}
	})
}
