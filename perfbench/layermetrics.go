package main

import (
	"fmt"
	"math"
	"path/filepath"

	"killi/internal/experiments"
)

// layerMetric is one per-layer metric of the traced run. Counts and ratios
// (probe == false) are always the traced workload's own — a layer the
// workload bypasses reports 0, which is how the bypass shows. Per-call times
// (probe == true) of a layer the workload never calls are measured by a
// small replay of another workload, so every metric is a measurement.
type layerMetric struct {
	name, unit string
	probe      bool
}

func layerMetrics() []layerMetric {
	ms := []layerMetric{
		{"workload.trace_ms", "ms", true},
		{"workload.trace_calls", "count", false},
		{"faultmodel.map_ms", "ms", true},
		{"faultmodel.resolve_ms", "ms", true},
		{"faultmodel.maps_built", "count", false},
		{"faultmodel.faults_at_ref", "count", false},
		{"sim.cell_ms", "ms", true},
		{"sim.events", "count", false},
		{"sim.cycles", "count", false},
		{"sim.ns_per_event", "ns", true},
		{"sim.ns_per_event.mem_bound", "ns", true},
		{"sim.ns_per_event.compute_bound", "ns", true},
		{"engine.ns_per_event", "ns", true},
		{"engine.allocs_per_event", "count", false},
		{"simcache.get_us", "us", true},
		{"simcache.put_ms", "ms", true},
		{"simcache.getdie_us", "us", true},
		{"simcache.putdie_ms", "ms", true},
		{"simcache.hits", "count", false},
		{"simcache.misses", "count", false},
		{"simcache.write_failures", "count", false},
		{"simcache.bytes_written", "bytes", false},
		{"simcache.hit_ratio.warm", "ratio", false},
		{"simcache.hit_ratio.regrid", "ratio", false},
		{"campaign.other_ms", "ms", true},
		{"campaign.journal_bytes", "bytes", false},
		{"campaign.parallel_efficiency", "ratio", false},
		{"experiments.parallel_efficiency", "ratio", false},
		{"simserver.hot_us", "us", true},
		{"simserver.submit_hot_us", "us", true},
		{"simserver.cold_wait_ms", "ms", true},
		{"simserver.executed", "count", false},
		{"simserver.coalesced", "count", false},
		{"simserver.retained_hits", "count", false},
		{"simserver.rejected", "count", false},
		{"simserver.executed_per_request", "ratio", false},
		{"trace.overhead_pct", "%", false},
	}
	for _, s := range append([]string{"none"}, schemeNames()...) {
		ms = append(ms, layerMetric{"sim.ns_per_event." + schemeMetric(s), "ns", true})
	}
	return ms
}

func schemeNames() []string {
	var names []string
	for _, s := range experiments.Schemes() {
		names = append(names, s.Name)
	}
	return names
}

// spanMetrics derives the span-based per-layer metrics of rec. A call-time
// metric is absent when its layer was never called.
func spanMetrics(rec *recorder) map[string]float64 {
	m := map[string]float64{}
	n := rec.mark()
	by := rec.byName(0, n)
	perCall := func(name, span string, scale float64) {
		if a := by[span]; a.n > 0 {
			m[name] = a.meanMS() * scale
		}
	}
	perCall("workload.trace_ms", "workload.trace", 1)
	perCall("faultmodel.map_ms", "faultmodel.map", 1)
	perCall("faultmodel.resolve_ms", "faultmodel.resolve", 1)
	perCall("sim.cell_ms", "sim.cell", 1)
	perCall("simcache.get_us", "simcache.get", 1000)
	perCall("simcache.put_ms", "simcache.put", 1)
	perCall("simcache.getdie_us", "simcache.getdie", 1000)
	perCall("simcache.putdie_ms", "simcache.putdie", 1)
	m["workload.trace_calls"] = float64(by["workload.trace"].n)
	m["faultmodel.maps_built"] = float64(by["faultmodel.map"].n)
	cells := by["sim.cell"]
	m["sim.events"] = float64(cells.events)
	var cycles uint64
	for _, s := range rec.spans {
		cycles += s.cycles
	}
	m["sim.cycles"] = float64(cycles)
	if cells.events > 0 {
		m["sim.ns_per_event"] = cells.nsPerEvent()
	}
	for g, a := range rec.byGroup(0, n) {
		if a.events > 0 {
			m["sim.ns_per_event."+g] = a.nsPerEvent()
		}
	}
	return m
}

// finishLayers completes a traced run's metrics: span-derived ones, the bare
// engine loop, zero for every count of a bypassed layer, and probe
// measurements for call times of layers the workload never calls.
func finishLayers(p params, o *outcome, rec *recorder, m map[string]float64, name string) (*outcome, error) {
	fill := func(from map[string]float64) {
		for k, v := range from {
			if _, ok := m[k]; !ok {
				m[k] = v
			}
		}
	}
	fill(spanMetrics(rec))
	m["engine.ns_per_event"], m["engine.allocs_per_event"] = engineLoop()
	var missing []string
	for _, lm := range layerMetrics() {
		if _, ok := m[lm.name]; ok {
			continue
		}
		if !lm.probe {
			m[lm.name] = 0
			continue
		}
		missing = append(missing, lm.name)
	}
	if len(missing) > 0 {
		probe, err := probeLayers(p, o, name)
		if err != nil {
			return nil, err
		}
		for _, k := range missing {
			if v, ok := probe[k]; ok {
				m[k] = v
			}
		}
		o.note("%s trace: measured by probe (layer not called by this workload): %v", name, missing)
	}
	for _, lm := range layerMetrics() {
		v, ok := m[lm.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("per-layer metric %s was not measured", lm.name)
		}
		o.set(lm.name, lm.unit, v)
	}
	return o, nil
}

// probeLayers replays small versions of the other two workloads under their
// own recorder and returns their span and probe metrics.
func probeLayers(p params, o *outcome, skip string) (map[string]float64, error) {
	rec := newRecorder()
	out := map[string]float64{}
	q := p
	q.dir = filepath.Join(p.dir, "probe")
	if skip != "fleet" {
		m, err := fleetLayers(q, rec, 2, o)
		if err != nil {
			return nil, fmt.Errorf("fleet probe: %w", err)
		}
		for k, v := range m {
			out[k] = v
		}
	}
	if skip != "sweep" {
		m, err := sweepLayers(q, rec, []string{"xsbench", "nekbone"}, 500, o)
		if err != nil {
			return nil, fmt.Errorf("sweep probe: %w", err)
		}
		for k, v := range m {
			out[k] = v
		}
	}
	if skip != "daemon" {
		m, err := daemonLayers(q, rec, 60, 500, o)
		if err != nil {
			return nil, fmt.Errorf("daemon probe: %w", err)
		}
		for k, v := range m {
			out[k] = v
		}
	}
	for k, v := range spanMetrics(rec) {
		out[k] = v
	}
	return out, nil
}
