package main

import (
	"strings"
	"testing"

	"killi/internal/engine"
	"killi/internal/gpu"
)

// goodRuns is a K=1/K=4 pair of tracked runs that passes every gate against
// its own ledger.
func goodRuns() (k1, k4 gpu.Result) {
	k1 = gpu.Result{Cycles: 65000, Sched: engine.RunStats{Events: 75000, Timestamps: 24000}}
	k4 = gpu.Result{Cycles: 65000, Sched: engine.RunStats{
		Rounds: 12000, Events: 75000, Timestamps: 30000, CrossShardMessages: 40000, IngestsSkipped: 100,
	}}
	return k1, k4
}

func goodLedger() ledger {
	k1, k4 := goodRuns()
	return ledgerOf(0, k1, k4)
}

func assertViolation(t *testing.T, bad []string, substr string) {
	t.Helper()
	for _, b := range bad {
		if strings.Contains(b, substr) {
			return
		}
	}
	t.Errorf("no violation mentioning %q in %v", substr, bad)
}

func TestEnforceCleanPass(t *testing.T) {
	k1, k4 := goodRuns()
	if bad := enforce(goodLedger(), 0, k1, k4); len(bad) != 0 {
		t.Fatalf("identical measurement flagged: %v", bad)
	}
}

func TestEnforceAllocGate(t *testing.T) {
	k1, k4 := goodRuns()
	assertViolation(t, enforce(goodLedger(), 0.01, k1, k4), "allocs_per_event")
}

// TestEnforceSchedulingGates pins the exact counters: cycles, events,
// serial timestamps and K=4 cross-shard messages match the committed ledger,
// K=4 rounds may only decrease and stay within cycles / 5, K=4 fires K=1's
// events, and the K=1 run stays on the serial path.
func TestEnforceSchedulingGates(t *testing.T) {
	base := goodLedger()
	for name, tc := range map[string]struct {
		perturb func(k1, k4 *gpu.Result)
		want    string
	}{
		"cycles":             {func(k1, _ *gpu.Result) { k1.Cycles++ }, "single_run_cycles"},
		"serial timestamps":  {func(k1, _ *gpu.Result) { k1.Sched.Timestamps-- }, "single_run_serial_timestamps"},
		"events":             {func(k1, k4 *gpu.Result) { k1.Sched.Events++; k4.Sched.Events++ }, "single_run_events"},
		"cross-shard msgs":   {func(_, k4 *gpu.Result) { k4.Sched.CrossShardMessages-- }, "single_run_cross_shard_messages_k4"},
		"rounds":             {func(_, k4 *gpu.Result) { k4.Sched.Rounds++ }, "coalescing regressed"},
		"K=4 events":         {func(_, k4 *gpu.Result) { k4.Sched.Events-- }, "sharding changed"},
		"K=1 rounds":         {func(k1, _ *gpu.Result) { k1.Sched.Rounds = 1 }, "serial fast path"},
		"K=1 cross-shard":    {func(k1, _ *gpu.Result) { k1.Sched.CrossShardMessages = 1 }, "serial fast path"},
		"K=1 skipped ingest": {func(k1, _ *gpu.Result) { k1.Sched.IngestsSkipped = 1 }, "serial fast path"},
	} {
		k1, k4 := goodRuns()
		tc.perturb(&k1, &k4)
		bad := enforce(base, 0, k1, k4)
		assertViolation(t, bad, tc.want)
		if len(bad) != 1 {
			t.Errorf("%s: want exactly 1 violation, got %v", name, bad)
		}
	}

	// Fewer rounds than committed is an improvement, not a violation.
	k1, k4 := goodRuns()
	k4.Sched.Rounds /= 2
	if bad := enforce(base, 0, k1, k4); len(bad) != 0 {
		t.Fatalf("round-count improvement flagged: %v", bad)
	}

	// The 5x coalescing floor is absolute, even when the ledger agrees.
	k1, k4 = goodRuns()
	k1.Cycles = k4.Sched.Rounds * 4
	k4.Cycles = k1.Cycles
	assertViolation(t, enforce(ledgerOf(0, k1, k4), 0, k1, k4), "× 5 exceeds")
}

// TestEnforceZeroBaselines pins that a zero or missing committed field is
// itself a violation on every gated counter.
func TestEnforceZeroBaselines(t *testing.T) {
	k1, k4 := goodRuns()
	bad := enforce(ledger{}, 0, k1, k4)
	for _, name := range []string{
		"single_run_cycles", "single_run_events", "single_run_serial_timestamps",
		"single_run_rounds_k4", "single_run_cross_shard_messages_k4",
	} {
		assertViolation(t, bad, "committed "+name+" is 0")
	}
}

// TestEnforceCurveWideHost pins the >= 4-CPU speedup gate: K=4 must be at
// least 2x faster than K=1. A narrower host gates nothing.
func TestEnforceCurveWideHost(t *testing.T) {
	if bad := enforceCurve(0.030, 0.014, 8); len(bad) != 0 {
		t.Fatalf("2.1x speedup flagged on an 8-CPU host: %v", bad)
	}
	assertViolation(t, enforceCurve(0.030, 0.016, 4), "not >= 2x faster")
	assertViolation(t, enforceCurve(0.030, 0, 4), "missing")
	if bad := enforceCurve(0.030, 0.090, 2); len(bad) != 0 {
		t.Fatalf("overhead-only curve flagged on a 2-CPU host: %v", bad)
	}
}
