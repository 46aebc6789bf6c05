//go:build !race

package experiments

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"killi/internal/gpu"
	"killi/internal/protection"
	"killi/internal/workload"
)

// TestSystemSteadyStateAllocs pins the simulator's hot paths as
// allocation-free in the steady state: after warm-up, one more kernel on
// a System allocates nothing, unprotected, under every sweep scheme and
// under the Killi variants that keep DECTED or OLSC checkbits in their ECC
// entries, at the sweep's LV operating point.
// A per-access allocation — a read hit's decoded line escaping, a codec
// building its syndromes or checkbits on the heap — shows up here as
// thousands.
func TestSystemSteadyStateAllocs(t *testing.T) {
	const maxAllocs = 0
	w, err := workload.ByName("xsbench")
	if err != nil {
		t.Fatal(err)
	}
	g := gpu.DefaultConfig()
	g.Voltage = 0.625
	traces := w.TraceSet(g.CUs, 2000, KernelSeeds(1, 2))
	specs := append([]SchemeSpec{{Name: "none", New: func() protection.Scheme { return protection.NewNone() }}}, Schemes()...)
	for _, name := range []string{"killi-dected-1:64", "killi-olsc2-1:64", "killi-olsc11-1:64"} {
		f, err := SchemeFactoryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, SchemeSpec{Name: name, New: f})
	}
	for _, spec := range specs {
		sys := gpu.New(g, spec.New)
		for k := 0; k < traces.Kernels(); k++ {
			sys.Run(traces.Kernel(k))
		}
		k := 0
		allocs := testing.AllocsPerRun(3, func() {
			sys.Run(traces.Kernel(k % traces.Kernels()))
			k++
		})
		t.Logf("%s: %.0f allocs/kernel", spec.Name, allocs)
		if allocs > maxAllocs {
			t.Errorf("%s: %.0f allocations per steady-state kernel, want <= %d", spec.Name, allocs, maxAllocs)
		}
	}
}

// TestRunHeapBoundedByWorkers pins the sweep's live heap to its worker
// count: a serial ten-workload sweep (90 simulations) must never hold more
// than a few Systems' worth of memory above its starting heap, however
// many tasks have finished. A finished task that keeps its System
// reachable — through a retained gpu.Result's Counters, say — grows the
// heap by a whole simulated machine per task; the sweep is then cancelled
// as soon as the bound is crossed, so the failure costs little memory.
func TestRunHeapBoundedByWorkers(t *testing.T) {
	const bound = 48 << 20
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	start := ms.HeapAlloc

	var mu sync.Mutex
	var peak uint64
	samples, failedAt := 0, 0
	cfg := Config{
		RequestsPerCU: 100,
		Parallelism:   1,
		Progress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			runtime.GC()
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			peak = max(peak, m.HeapAlloc)
			samples++
			if m.HeapAlloc > start+bound && failedAt == 0 {
				failedAt = done
				cancel()
			}
		},
	}
	_, err := Run(ctx, cfg)
	if failedAt != 0 {
		t.Fatalf("live heap grew by %.1f MiB after %d tasks (bound %d MiB): finished simulations stay reachable",
			float64(peak-start)/(1<<20), failedAt, bound>>20)
	}
	if err != nil {
		t.Fatal(err)
	}
	if want := len(workload.Catalog()) * (len(Schemes()) + 1); samples != want {
		t.Fatalf("sampled the heap after %d tasks, want %d", samples, want)
	}
	t.Logf("peak live heap growth %.1f MiB over %d tasks", float64(peak-start)/(1<<20), samples)
}

// TestColdRunRecyclesSystem gates what a cold single run allocates once a
// System has been released: after one warm-up RunOneNamed, a second one —
// killi-1:64 on a first-seen daemon job's shape, a different workload, no
// result cache — must allocate at most 1 MB. It recycles the released
// machine and reuses the memoized fault map, so it pays for its traces,
// its schemes and a detached counter copy. A fresh machine is about 4 MB
// (2 MB of payloads, 0.8 MB of tags, line tables, engine queues), so a
// System that stops being recycled shows here.
func TestColdRunRecyclesSystem(t *testing.T) {
	const maxBytes = 1 << 20
	cfg := Config{RequestsPerCU: 1500}
	if _, err := RunOneNamed(context.Background(), cfg, "xsbench", "killi-1:64", 0.625); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := RunOneNamed(context.Background(), cfg, "fft", "killi-1:64", 0.625); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("second cold run allocated %.2f MB", float64(got)/(1<<20))
	if got > maxBytes {
		t.Fatalf("second cold run allocated %d bytes, want <= %d: the released System was not recycled", got, maxBytes)
	}
}
