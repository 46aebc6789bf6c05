package main

import (
	"strings"
	"testing"

	"killi/internal/bitvec"
	"killi/internal/engine"
	"killi/internal/faultmodel"
	"killi/internal/gpu"
	"killi/internal/protection"
	"killi/internal/workload"
	"killi/internal/xrand"
)

// The functions in this file replay one unit of a layer's work through its
// public functions under a span. Each mirrors the program path it stands for
// exactly — the traced runs compare their results with the program's — so a
// span measures the same work the untraced workload does.

// schemeMetric turns a scheme name into a metric-name suffix.
func schemeMetric(name string) string { return strings.ReplaceAll(name, ":", "_") }

// traceSet builds one workload's kernel traces (workload layer).
func traceSet(rec *recorder, id string, w workload.Workload, cus, perCU int, seeds []uint64) *workload.TraceSet {
	var ts *workload.TraceSet
	rec.do("workload.trace", id, func() { ts = w.TraceSet(cus, perCU, seeds) })
	return ts
}

// faultPopulation samples g's fault map at refV and resolves it at every
// voltage in vs — gpu.BuildSharedFaults split into its map build and its
// resolves (faultmodel layer). vs[0] must be refV, as it is on every program
// path; the second result is the number of faults active there.
func faultPopulation(rec *recorder, id string, g gpu.Config, refV float64, vs []float64) ([]*gpu.SharedFaults, int) {
	var fm *faultmodel.Map
	rec.do("faultmodel.map", id, func() {
		// Same geometry rounding as gpu.BuildSharedFaults.
		lines := (g.L2Bytes / g.LineBytes / g.L2Ways) * g.L2Ways
		fm = faultmodel.NewMap(xrand.New(g.FaultSeed), g.FaultModel, lines, bitvec.LineBits, refV, g.FreqGHz)
	})
	out := make([]*gpu.SharedFaults, len(vs))
	for i, v := range vs {
		rec.do("faultmodel.resolve", id, func() { out[i] = &gpu.SharedFaults{Map: fm, Resolved: fm.Resolve(v)} })
	}
	faults := 0
	for l := 0; l < out[0].Resolved.Lines(); l++ {
		faults += out[0].Resolved.LineCount(l)
	}
	return out, faults
}

// simCell runs one prepared simulation — experiments.RunShared's kernel loop
// at one shard — and records its engine events, grouped by scheme and by the
// workload's class (sim layer).
func simCell(rec *recorder, id string, g gpu.Config, scheme string, f protection.Factory,
	faults *gpu.SharedFaults, w workload.Workload, ts *workload.TraceSet) gpu.Result {
	var res gpu.Result
	var events uint64
	s := rec.do("sim.cell", id, func() {
		sys := gpu.NewShared(g, f, faults)
		sys.SetShards(1)
		for k := 0; k < ts.Kernels(); k++ {
			res = sys.Run(ts.Kernel(k))
			events += res.Sched.Events
		}
	})
	s.events, s.cycles = events, res.Cycles
	class := "compute_bound"
	if w.Class == workload.MemoryBound {
		class = "mem_bound"
	}
	s.group = []string{schemeMetric(scheme), class}
	return res
}

// sinkFunc adapts a function to engine.EventSink.
type sinkFunc func(kind uint8, a, b uint64)

func (f sinkFunc) OnEvent(kind uint8, a, b uint64) { f(kind, a, b) }

// engineLoop measures the bare K=1 event loop (engine layer): each iteration
// schedules 100 events and the sink reschedules every even one, so the queue
// stays warm. Time and allocations are divided by the events actually fired.
func engineLoop() (nsPerEvent, allocsPerEvent float64) {
	const perIter = 100
	var fired uint64 // events the last benchmark round fired
	res := testing.Benchmark(func(b *testing.B) {
		s := engine.NewSharded(1)
		d := s.Domain(0)
		d.Bind(sinkFunc(func(kind uint8, a, bb uint64) {
			fired++
			if a%2 == 0 {
				d.After(d.Now()%13, kind, a+1, bb)
			}
		}))
		b.ReportAllocs()
		b.ResetTimer()
		fired = 0
		for i := 0; i < b.N; i++ {
			for j := 0; j < perIter; j++ {
				d.After(uint64(j%13), 0, uint64(j), 0)
			}
			s.Run()
		}
	})
	return float64(res.T.Nanoseconds()) / float64(fired), float64(res.MemAllocs) / float64(fired)
}
