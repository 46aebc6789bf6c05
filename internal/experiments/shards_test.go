package experiments

import (
	"context"
	"testing"
)

// TestSweepRowsShardInvariant pins the sweep-level half of the sharded
// engine's determinism contract: a full Run at Shards=4 (each simulation
// parallel inside) renders byte-identical %.17g rows to the serial
// Shards=1 sweep, across every scheme and workload in the grid.
func TestSweepRowsShardInvariant(t *testing.T) {
	base := Config{
		Voltage:       0.625,
		RequestsPerCU: 400,
		Seed:          1,
		Workloads:     []string{"xsbench", "nekbone"},
		WarmupKernels: 1,
		Parallelism:   1,
	}
	ref, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	sharded := base
	sharded.Shards = 4
	got, err := Run(context.Background(), sharded)
	if err != nil {
		t.Fatal(err)
	}
	refS, gotS := formatRows(ref), formatRows(got)
	if gotS != refS {
		t.Errorf("Shards=4 sweep rows diverge from serial rows:\n%s\nvs\n%s", gotS, refS)
	}
}

// TestNormalizedBudgetsWorkersAgainstShards pins the Parallelism<0
// budget: the auto worker count divides GOMAXPROCS by the shard count so
// shards x workers stays at the machine size.
func TestNormalizedBudgetsWorkersAgainstShards(t *testing.T) {
	c, err := Config{Parallelism: -1, Shards: 1 << 30}.Normalized()
	if err != nil || c.Parallelism != 1 {
		t.Fatalf("Parallelism = %d (err %v) with huge shard count, want 1", c.Parallelism, err)
	}
	c, err = Config{}.Normalized()
	if err != nil || c.Shards != 1 || c.Parallelism != 1 {
		t.Fatalf("zero config defaults: shards %d parallelism %d (err %v), want 1/1", c.Shards, c.Parallelism, err)
	}
}
