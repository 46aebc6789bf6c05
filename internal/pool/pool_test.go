package pool

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ordered runs Ordered on its own goroutine and fails the test if it has
// not returned within a generous deadline, so a deadlock is a failure
// instead of a hung test binary.
func ordered(t *testing.T, ctx context.Context, first, n, workers, window int, run func(int) (int, error), deliver func(int, int) error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- Ordered(ctx, first, n, workers, window, run, deliver) }()
	select {
	case err := <-done:
		return err
	case <-time.After(20 * time.Second):
		t.Fatal("Ordered did not return: the pool deadlocked")
		return nil
	}
}

// collect is a deliver func that records every delivered (index, value)
// pair in order. It runs on Ordered's calling goroutine only.
func collect(got *[]int) func(int, int) error {
	return func(i, v int) error {
		if v != i*i {
			return errors.New("value delivered under the wrong index")
		}
		*got = append(*got, i)
		return nil
	}
}

func square(i int) (int, error) { return i * i, nil }

func wantRange(t *testing.T, got []int, first, n int) {
	t.Helper()
	if len(got) != n-first {
		t.Fatalf("delivered %d tasks, want %d: %v", len(got), n-first, got)
	}
	for k, i := range got {
		if i != first+k {
			t.Fatalf("delivery %d was task %d, want %d: %v", k, i, first+k, got)
		}
	}
}

// TestOrderedDeliversInOrder completes every task in a shuffled order —
// each waits on a gate the test opens in a fixed permutation — and
// demands deliveries in increasing index all the same.
func TestOrderedDeliversInOrder(t *testing.T) {
	const n = 16
	gates := make([]chan struct{}, n)
	for i := range gates {
		gates[i] = make(chan struct{})
	}
	go func() {
		for k := 0; k < n; k++ {
			close(gates[(k*7+3)%n]) // 7 is coprime with 16: a permutation
			time.Sleep(time.Millisecond)
		}
	}()
	var got []int
	run := func(i int) (int, error) {
		<-gates[i]
		return square(i)
	}
	if err := ordered(t, context.Background(), 0, n, n, n, run, collect(&got)); err != nil {
		t.Fatal(err)
	}
	wantRange(t, got, 0, n)
}

// TestOrderedWindowBound pins the memory bound: tasks started but not yet
// delivered never exceed the window, with more workers than window slots.
func TestOrderedWindowBound(t *testing.T) {
	for _, window := range []int{1, 2, 5} {
		var open, peak atomic.Int64
		run := func(i int) (int, error) {
			now := open.Add(1)
			for {
				p := peak.Load()
				if now <= p || peak.CompareAndSwap(p, now) {
					break
				}
			}
			// Later tasks finish first, so early ones hold the window.
			time.Sleep(time.Duration(40-i%40) * 20 * time.Microsecond)
			return square(i)
		}
		var got []int
		deliver := func(i, v int) error {
			open.Add(-1)
			return collect(&got)(i, v)
		}
		if err := ordered(t, context.Background(), 3, 200, 8, window, run, deliver); err != nil {
			t.Fatal(err)
		}
		wantRange(t, got, 3, 200)
		if p := peak.Load(); p > int64(window) {
			t.Errorf("window %d: %d tasks undelivered at once", window, p)
		}
	}
}

// TestOrderedWorkerErrorMidWindow fails one task while later ones are
// dispatched and finished: the gap at the reorder point can never be
// delivered, so Ordered must stop dispatching, drain, and return the
// task's error instead of deadlocking on a full window.
func TestOrderedWorkerErrorMidWindow(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	run := func(i int) (int, error) {
		ran.Add(1)
		if i == 10 {
			return 0, boom
		}
		return square(i)
	}
	var got []int
	err := ordered(t, context.Background(), 0, 1000, 4, 4, run, collect(&got))
	if !errors.Is(err, boom) {
		t.Fatalf("Ordered = %v, want the task's error", err)
	}
	// Tasks below the failed one that had not started when it failed are
	// skipped too, so the delivered prefix may stop short of it.
	if len(got) > 10 {
		t.Fatalf("delivered past the failed task: %v", got)
	}
	wantRange(t, got, 0, len(got))
	if r := ran.Load(); r >= 1000 {
		t.Errorf("all %d tasks ran after a failure; dispatch did not stop", r)
	}
}

// TestOrderedCancelOutranksTaskError cancels the caller's context from
// inside a task that then fails: the cancellation is what Ordered reports.
func TestOrderedCancelOutranksTaskError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	run := func(i int) (int, error) {
		if i == 5 {
			cancel()
			return 0, errors.New("boom")
		}
		return square(i)
	}
	var got []int
	if err := ordered(t, ctx, 0, 100, 3, 6, run, collect(&got)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Ordered = %v, want context.Canceled", err)
	}
}

// TestOrderedDeliverError stops dispatch at a failed delivery and returns
// its error; nothing is delivered after it.
func TestOrderedDeliverError(t *testing.T) {
	full := errors.New("disk full")
	var ran atomic.Int64
	run := func(i int) (int, error) {
		ran.Add(1)
		return square(i)
	}
	var got []int
	deliver := func(i, v int) error {
		if i == 7 {
			return full
		}
		return collect(&got)(i, v)
	}
	if err := ordered(t, context.Background(), 0, 1000, 2, 2, run, deliver); !errors.Is(err, full) {
		t.Fatalf("Ordered = %v, want the deliver error", err)
	}
	wantRange(t, got, 0, 7)
	if r := ran.Load(); r >= 1000 {
		t.Errorf("all %d tasks ran after a failed delivery; dispatch did not stop", r)
	}
}

// TestOrderedPreCancelled runs nothing under an already-cancelled context.
func TestOrderedPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	run := func(i int) (int, error) {
		ran.Add(1)
		return square(i)
	}
	var got []int
	for _, workers := range []int{1, 4} {
		if err := ordered(t, ctx, 0, 50, workers, 8, run, collect(&got)); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: Ordered = %v, want context.Canceled", workers, err)
		}
	}
	if ran.Load() != 0 || len(got) != 0 {
		t.Fatalf("pre-cancelled context ran %d tasks and delivered %d", ran.Load(), len(got))
	}
}

// TestOrderedEmptyRange delivers nothing and succeeds when first == n, as
// a campaign resumed from a complete checkpoint does.
func TestOrderedEmptyRange(t *testing.T) {
	var ran atomic.Int64
	run := func(i int) (int, error) {
		ran.Add(1)
		return square(i)
	}
	var got []int
	if err := ordered(t, context.Background(), 9, 9, 4, 4, run, collect(&got)); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 0 || len(got) != 0 {
		t.Fatalf("empty range ran %d tasks and delivered %d", ran.Load(), len(got))
	}
}

// TestOrderedSerial runs every task in index order with one worker, the
// serial path the sweep and campaign take at parallelism 1.
func TestOrderedSerial(t *testing.T) {
	var mu sync.Mutex
	var order []int
	run := func(i int) (int, error) {
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
		return square(i)
	}
	var got []int
	if err := ordered(t, context.Background(), 2, 40, 1, 40, run, collect(&got)); err != nil {
		t.Fatal(err)
	}
	wantRange(t, got, 2, 40)
	wantRange(t, order, 2, 40)
}

// TestBudget pins the shared (parallelism, shards) defaults.
func TestBudget(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	cases := []struct{ parallel, shards, wantWorkers, wantShards int }{
		{-1, 0, procs, 1},
		{-1, 1, procs, 1},
		{-1, procs + 1, 1, procs + 1}, // more shards than procs still gets a worker
		{0, 2, 1, 2},
		{3, -4, 3, 1},
		{5, 2, 5, 2},
	}
	for _, c := range cases {
		w, s := Budget(c.parallel, c.shards)
		if w != c.wantWorkers || s != c.wantShards {
			t.Errorf("Budget(%d, %d) = (%d, %d), want (%d, %d)", c.parallel, c.shards, w, s, c.wantWorkers, c.wantShards)
		}
	}
}
