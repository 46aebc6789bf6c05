// killi-bench records the simulator core's exact work ledger in a tracked
// JSON file (BENCH_core.json), so a change to the work the simulator does
// shows up in review like any other diff.
//
// The ledger is read from one tracked simulation — xsbench × killi-1:64 at
// 0.625xVDD, 2500 requests per CU, seed 1 — run at K=1 and K=4 shards, plus
// a steady-state microbenchmark of the sharded engine's K=1 serial fast
// path (reused engine and sink, 100 events per iteration):
//
//   - allocs_per_event: the engine microbenchmark's allocations per event;
//   - single_run_cycles and single_run_events: simulated cycles and fired
//     events of the K=1 run;
//   - single_run_serial_timestamps: the K=1 run's distinct event
//     timestamps (the barrier rounds a per-timestamp scheduler needs);
//   - single_run_rounds_k4 and single_run_cross_shard_messages_k4: the K=4
//     run's coalesced barrier rounds and cross-shard messages.
//
// Every field is a pure function of the simulation, identical on every
// host at a given commit. Wall-clock speed is measured pairwise against the
// parent commit by the repository benchmark (perfbench), not here.
//
// With -enforce, the run exits nonzero unless the fresh ledger passes the
// exact gates against the file's committed ledger:
//
//   - allocs_per_event is 0;
//   - cycles, events, serial timestamps and K=4 cross-shard messages match
//     the committed values (a change means the simulation's semantics
//     moved — rebase deliberately, with the goldens);
//   - K=4 rounds do not exceed the committed value, and rounds × 5 <=
//     cycles pins the coalescing win over a per-cycle round structure;
//   - the K=4 run fires exactly the K=1 run's events, and the K=1 run
//     reports no rounds, cross-shard messages or skipped ingests (it took
//     the serial path, so K=1 pays nothing for sharding);
//   - on a host with at least four CPUs, the K=4 run is at least 2x faster
//     than the K=1 run. Both timings come from this process, so no stored
//     baseline can drift.
//
// A zero or missing committed field is itself a violation: its gate could
// never fire. Every run, enforced or not, then rewrites the file with the
// fresh ledger, so a changed ledger shows up as a diff.
//
// The engine's ns/event and the K=1/2/4/8 single-run timings go to stderr
// for EXPERIMENTS.md; they are neither stored nor compared to a baseline.
// -cpuprofile and -memprofile write pprof profiles covering every
// measurement, as killi-sim's do for a sweep.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"testing"
	"time"

	"killi/internal/engine"
	"killi/internal/experiments"
	"killi/internal/gpu"
	"killi/internal/killi"
	"killi/internal/obs"
	"killi/internal/protection"
)

// ledger is the committed BENCH_core.json.
type ledger struct {
	AllocsPerEvent                float64 `json:"allocs_per_event"`
	SingleRunCycles               uint64  `json:"single_run_cycles"`
	SingleRunEvents               uint64  `json:"single_run_events"`
	SingleRunSerialTimestamps     uint64  `json:"single_run_serial_timestamps"`
	SingleRunRoundsK4             uint64  `json:"single_run_rounds_k4"`
	SingleRunCrossShardMessagesK4 uint64  `json:"single_run_cross_shard_messages_k4"`
}

// ledgerOf reads the ledger off the tracked run at K=1 and K=4.
func ledgerOf(allocsPerEvent float64, k1, k4 gpu.Result) ledger {
	return ledger{
		AllocsPerEvent:                allocsPerEvent,
		SingleRunCycles:               k1.Cycles,
		SingleRunEvents:               k1.Sched.Events,
		SingleRunSerialTimestamps:     k1.Sched.Timestamps,
		SingleRunRoundsK4:             k4.Sched.Rounds,
		SingleRunCrossShardMessagesK4: k4.Sched.CrossShardMessages,
	}
}

const eventsPerIter = 100

// sinkFunc adapts a function to engine.EventSink.
type sinkFunc func(kind uint8, a, b uint64)

func (f sinkFunc) OnEvent(kind uint8, a, b uint64) { f(kind, a, b) }

// benchEngine measures the sharded engine's K=1 serial fast path — the
// path every default simulation runs on — with a self-rescheduling sink
// that keeps the queue warm, mirroring the engine package's steady-state
// benchmark.
func benchEngine() (nsPerEvent, allocsPerEvent float64) {
	res := testing.Benchmark(func(b *testing.B) {
		s := engine.NewSharded(1)
		d := s.Domain(0)
		d.Bind(sinkFunc(func(kind uint8, a, bb uint64) {
			if a%2 == 0 {
				d.After(d.Now()%13, kind, a+1, bb)
			}
		}))
		for i := 0; i < 128; i++ {
			d.After(uint64(i%13), 0, uint64(i), 0)
		}
		s.Run()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < eventsPerIter; j++ {
				d.After(uint64(j%13), 0, uint64(j), 0)
			}
			s.Run()
		}
	})
	return float64(res.NsPerOp()) / eventsPerIter,
		float64(res.AllocsPerOp()) / eventsPerIter
}

// benchSingle runs the tracked simulation three times at the given shard
// count and returns the best wall-clock and the run's result, whose Sched
// ledger is the same on every run.
func benchSingle(shards int) (float64, gpu.Result, error) {
	cfg := experiments.Config{
		Voltage:       0.625,
		RequestsPerCU: 2500,
		Seed:          1,
		Shards:        shards,
	}
	newScheme := func() protection.Scheme { return killi.New(killi.Config{Ratio: 64}) }
	best := 0.0
	var res gpu.Result
	for i := 0; i < 3; i++ {
		start := time.Now()
		r, err := experiments.RunOne(context.Background(), cfg, "xsbench", newScheme, cfg.Voltage)
		if err != nil {
			return 0, gpu.Result{}, err
		}
		res = r
		if s := time.Since(start).Seconds(); i == 0 || s < best {
			best = s
		}
	}
	return best, res, nil
}

// enforce checks the fresh measurement — the engine's allocs/event and the
// tracked run at K=1 and K=4 — against the committed ledger and returns the
// violations (empty = pass). Every gate is exact.
func enforce(committed ledger, allocsPerEvent float64, k1, k4 gpu.Result) []string {
	cur := ledgerOf(allocsPerEvent, k1, k4)
	var bad []string
	if cur.AllocsPerEvent > 0 {
		bad = append(bad, fmt.Sprintf("allocs_per_event %.2f, want 0 (steady state must stay allocation-free)",
			cur.AllocsPerEvent))
	}
	for _, g := range []struct {
		name           string
		committed, cur uint64
	}{
		{"single_run_cycles", committed.SingleRunCycles, cur.SingleRunCycles},
		{"single_run_events", committed.SingleRunEvents, cur.SingleRunEvents},
		{"single_run_serial_timestamps", committed.SingleRunSerialTimestamps, cur.SingleRunSerialTimestamps},
		{"single_run_cross_shard_messages_k4", committed.SingleRunCrossShardMessagesK4, cur.SingleRunCrossShardMessagesK4},
	} {
		if g.committed == 0 {
			bad = append(bad, fmt.Sprintf("committed %s is 0 — the gate cannot fire; commit a freshly written ledger", g.name))
		} else if g.cur != g.committed {
			bad = append(bad, fmt.Sprintf("%s %d differs from committed %d — simulation semantics moved; rebase deliberately, with the goldens",
				g.name, g.cur, g.committed))
		}
	}
	switch {
	case committed.SingleRunRoundsK4 == 0:
		bad = append(bad, "committed single_run_rounds_k4 is 0 — the gate cannot fire; commit a freshly written ledger")
	case cur.SingleRunRoundsK4 > committed.SingleRunRoundsK4:
		bad = append(bad, fmt.Sprintf("single_run_rounds_k4 %d exceeds committed %d — lookahead coalescing regressed",
			cur.SingleRunRoundsK4, committed.SingleRunRoundsK4))
	}
	if cur.SingleRunRoundsK4*5 > cur.SingleRunCycles {
		bad = append(bad, fmt.Sprintf("single_run_rounds_k4 %d × 5 exceeds single_run_cycles %d — barrier rounds must stay >= 5x below the per-cycle round structure",
			cur.SingleRunRoundsK4, cur.SingleRunCycles))
	}
	if k4.Sched.Events != k1.Sched.Events {
		bad = append(bad, fmt.Sprintf("K=4 run fired %d events, K=1 run %d — sharding changed the simulated work",
			k4.Sched.Events, k1.Sched.Events))
	}
	if s := k1.Sched; s.Rounds != 0 || s.CrossShardMessages != 0 || s.IngestsSkipped != 0 {
		bad = append(bad, fmt.Sprintf("K=1 run reports %d rounds, %d cross-shard messages, %d skipped ingests, want all 0 — it left the serial fast path",
			s.Rounds, s.CrossShardMessages, s.IngestsSkipped))
	}
	return bad
}

// enforceCurve gates the real parallel win on a host with at least four
// CPUs: the K=4 single run must be at least 2x faster than K=1, both timed
// in this process. A narrower host cannot show the win, so it gates
// nothing.
func enforceCurve(k1Seconds, k4Seconds float64, ncpu int) []string {
	if ncpu < 4 {
		return nil
	}
	if k1Seconds == 0 || k4Seconds == 0 {
		return []string{"shard curve is missing the K=1 or K=4 point"}
	}
	if k4Seconds > k1Seconds/2 {
		return []string{fmt.Sprintf("K=4 single run %.3fs is not >= 2x faster than K=1 %.3fs on a %d-CPU host",
			k4Seconds, k1Seconds, ncpu)}
	}
	return nil
}

// readLedger loads the committed ledger; a missing file reads as all zeros,
// which enforce reports field by field.
func readLedger(path string) (ledger, error) {
	var l ledger
	buf, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return l, nil
	}
	if err != nil {
		return l, err
	}
	if err := json.Unmarshal(buf, &l); err != nil {
		return l, fmt.Errorf("%s: %w", path, err)
	}
	return l, nil
}

func main() {
	os.Exit(run())
}

func run() int {
	out := flag.String("o", "BENCH_core.json", "ledger file: compared against with -enforce, then rewritten")
	gate := flag.Bool("enforce", false, "exit nonzero unless the fresh ledger passes the exact gates against the committed one")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the measurements to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (after the measurements) to this file")
	flag.Parse()

	stopProfiles, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "killi-bench: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "killi-bench: %v\n", err)
		}
	}()

	committed, err := readLedger(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "killi-bench: %v\n", err)
		return 1
	}

	ns, allocs := benchEngine()
	fmt.Fprintf(os.Stderr, "engine: %.1f ns/event, %.2f allocs/event (K=1 serial path)\n", ns, allocs)

	seconds := map[int]float64{}
	results := map[int]gpu.Result{}
	for _, k := range []int{1, 2, 4, 8} {
		s, res, err := benchSingle(k)
		if err != nil {
			fmt.Fprintf(os.Stderr, "killi-bench: single run at K=%d: %v\n", k, err)
			return 1
		}
		seconds[k], results[k] = s, res
		fmt.Fprintf(os.Stderr, "curve:  K=%d %.3f s (rounds %d, events %d, cross-shard msgs %d, ingests skipped %d)\n",
			k, s, res.Sched.Rounds, res.Sched.Events, res.Sched.CrossShardMessages, res.Sched.IngestsSkipped)
	}
	k1, k4 := results[1], results[4]
	cur := ledgerOf(allocs, k1, k4)
	fmt.Fprintf(os.Stderr, "sched:  %d cycles, %d serial timestamps -> %d K=4 rounds (%.2fx vs per-cycle, %.2fx vs per-timestamp)\n",
		cur.SingleRunCycles, cur.SingleRunSerialTimestamps, cur.SingleRunRoundsK4,
		float64(cur.SingleRunCycles)/float64(cur.SingleRunRoundsK4),
		float64(cur.SingleRunSerialTimestamps)/float64(cur.SingleRunRoundsK4))

	buf, err := json.MarshalIndent(cur, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "killi-bench: %v\n", err)
		return 1
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "killi-bench: %v\n", err)
		return 1
	}
	fmt.Printf("wrote %s (%d cycles, %d events, %d K=4 rounds)\n",
		*out, cur.SingleRunCycles, cur.SingleRunEvents, cur.SingleRunRoundsK4)

	if *gate {
		bad := enforce(committed, allocs, k1, k4)
		bad = append(bad, enforceCurve(seconds[1], seconds[4], runtime.NumCPU())...)
		if len(bad) > 0 {
			for _, b := range bad {
				fmt.Fprintf(os.Stderr, "killi-bench: REGRESSION: %s\n", b)
			}
			return 1
		}
		fmt.Fprintln(os.Stderr, "killi-bench: ledger matches the committed one")
	}
	return 0
}
