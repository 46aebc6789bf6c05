package experiments

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"killi/internal/faultmodel"
	"killi/internal/gpu"
	"killi/internal/obs"
	"killi/internal/protection"
	"killi/internal/workload"
)

// recycleStep is one simulation of TestRecycledSystemMatchesFresh.
type recycleStep struct {
	scheme, classes string
	softErr         float64
	observe         bool
	shards          int
}

// run simulates the step through simulate on a 256 KB L2, two kernels of
// xsbench, and renders everything it returns: every counter, every field
// the result cache keeps, the scheduling ledger and, when observed, the
// observer's stream.
func (st recycleStep) run() (string, error) {
	g := gpu.DefaultConfig()
	g.L2Bytes = 256 << 10
	g.Voltage = 0.625
	g.SoftErrorPerRead = st.softErr
	classes, err := faultmodel.ParseClassSpec(st.classes)
	if err != nil {
		return "", err
	}
	g.Classes = classes
	newScheme, err := SchemeFactoryByName(st.scheme)
	if err != nil {
		return "", err
	}
	w, err := workload.ByName("xsbench")
	if err != nil {
		return "", err
	}
	var col *obs.Collector
	var o obs.Observer
	if st.observe {
		col = obs.NewCollector()
		o = col
	}
	res, err := simulate(context.Background(), g, newScheme, nil,
		w.TraceSet(g.CUs, 1200, KernelSeeds(5, 1)), st.shards, 0, o, 2048)
	if err != nil {
		return "", err
	}
	out := fmt.Sprintf("%+v\nsched=%+v\n", CacheableResult(res), res.Sched)
	for _, n := range res.Counters.Names() {
		out += fmt.Sprintf("%s=%d\n", n, res.Counters.Get(n))
	}
	if col != nil {
		out += fmt.Sprintf("resets=%v\ntransitions=%v\nepochs=%v\n",
			col.Resets(), col.Transitions(), col.Epochs())
	}
	return out, nil
}

// flushReleased empties gpu's free list of released Systems: releasing a
// System of another geometry drops the idle ones, so the next simulation
// builds its machine from nothing.
func flushReleased() {
	g := gpu.DefaultConfig()
	g.L2Bytes = 64 << 10
	gpu.NewShared(g, func() protection.Scheme { return protection.NewNone() }, gpu.BuildSharedFaults(g)).Release()
}

// TestRecycledSystemMatchesFresh runs one sequence of simulations through
// simulate, so each System is the previous one released and re-initialized,
// and requires every result to equal the same simulation on a freshly
// allocated System. The sequence crosses every scheme family, a mixed
// population with transient strikes, per-read soft errors, an observer
// switched on and off, and one and four shards; each RNG-drawing step
// follows another that drew from the same stream, so a stream left
// unseeded on reuse shows. Then two workers run the sequence at once, one
// of them backwards, handing Systems to each other through the pool.
func TestRecycledSystemMatchesFresh(t *testing.T) {
	const mixed = "mixed:i=0.2@0.25,a=0.1@0.05,t=1e-06"
	steps := []recycleStep{
		{scheme: "none", shards: 1},
		{scheme: "msecc", shards: 1},
		{scheme: "flair", shards: 4},
		{scheme: "killi-1:64", shards: 1},
		{scheme: "killi-1:64", softErr: 0.002, shards: 1},
		{scheme: "killi-olsc2-1:64", softErr: 0.002, shards: 4},
		{scheme: "killi-1:64", classes: mixed, observe: true, shards: 1},
		{scheme: "killi-1:64", classes: mixed, observe: true, shards: 4},
		{scheme: "killi-1:64", shards: 4},
		{scheme: "killi-olsc2-1:64", shards: 1},
	}
	fresh := make([]string, len(steps))
	for i, st := range steps {
		flushReleased()
		out, err := st.run()
		if err != nil {
			t.Fatal(err)
		}
		fresh[i] = out
	}
	check := func(i int) {
		out, err := steps[i].run()
		if err != nil {
			t.Error(err)
		} else if out != fresh[i] {
			t.Errorf("step %d %+v: recycled System diverges from a fresh one\nrecycled:\n%s\nfresh:\n%s", i, steps[i], out, fresh[i])
		}
	}
	for i := range steps {
		check(i)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := range steps {
			check(i)
		}
	}()
	go func() {
		defer wg.Done()
		for i := len(steps) - 1; i >= 0; i-- {
			check(i)
		}
	}()
	wg.Wait()
}

// TestRunResultDetached: a Result simulate returns holds its own counters,
// so the next simulation — which recycles the released System — cannot
// change them.
func TestRunResultDetached(t *testing.T) {
	g := gpu.DefaultConfig()
	g.Voltage = 0.625
	newScheme, err := SchemeFactoryByName("killi-1:64")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	traces := w.TraceSet(g.CUs, 500, KernelSeeds(1, 0))
	res, err := simulate(context.Background(), g, newScheme, nil, traces, 1, 0, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := res.Counters.Clone()
	if _, err := simulate(context.Background(), g, newScheme, nil, traces, 1, 0, nil, 0); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, res.Counters) {
		t.Fatal("a returned Result's counters changed when the next simulation ran")
	}
}
