// Package pool runs indexed tasks on a bounded set of workers and hands
// their results back strictly in index order. It is the one worker pool
// behind the Figure 4/5 sweep (internal/experiments) and the fleet
// campaign (internal/campaign): tasks may finish in any order, but the
// caller folds them in index order on one goroutine, which is what keeps
// both outputs bit-identical at every worker count.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// Budget resolves a (parallelism, shards) request the way every pool user
// reads it: shards below 1 mean 1; a negative parallelism means
// GOMAXPROCS divided by shards (at least 1), so workers x shards stays
// budgeted against the machine; 0 means 1.
func Budget(parallelism, shards int) (workers, budgetShards int) {
	shards = max(shards, 1)
	if parallelism < 0 {
		parallelism = runtime.GOMAXPROCS(0) / shards
	}
	return max(parallelism, 1), shards
}

// Ordered runs run(i) for every i in [first, n) on up to workers
// goroutines and calls deliver(i, v) with each result in increasing i on
// the calling goroutine. At most window tasks are dispatched but not yet
// delivered at any moment, so buffered results never exceed window however
// large n is. workers and window below 1 mean 1; first >= n runs nothing.
//
// The first error from run or deliver stops dispatch: tasks already
// running finish, nothing further is delivered, and Ordered returns once
// every worker has exited. A cancelled ctx outranks every other error (a
// cancelled job is cancelled, whatever else went wrong), and a task's error
// outranks a deliver error. Cancelling ctx only stops dispatch; run
// observes ctx itself to stop a task that is already running.
func Ordered[T any](ctx context.Context, first, n, workers, window int, run func(i int) (T, error), deliver func(i int, v T) error) error {
	if first >= n {
		return ctx.Err()
	}
	window = max(window, 1)
	workers = min(max(workers, 1), n-first)

	// A failed task leaves a permanent gap at the reorder point: no later
	// delivery can release its token, so without cancellation the
	// dispatcher would eventually block on a full window while workers
	// block on an empty (unclosed) index channel. The internal context
	// breaks that cycle: the first error cancels it, dispatch stops, and
	// the workers drain.
	inner, cancel := context.WithCancel(ctx)
	defer cancel()

	type result struct {
		i int
		v T
	}
	// tokens is the window: a task is dispatched only after taking one and
	// its token is returned only when it is delivered. results shares the
	// window's capacity, so a worker never blocks sending a result and the
	// pipeline cannot deadlock.
	tokens := make(chan struct{}, window)
	next := make(chan int)
	results := make(chan result, window)
	errc := make(chan error, 1)

	go func() {
		defer close(next)
		for i := first; i < n; i++ {
			select {
			case tokens <- struct{}{}:
			case <-inner.Done():
				return
			}
			select {
			case next <- i:
			case <-inner.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if inner.Err() != nil {
					continue // drain the channel without starting work
				}
				v, err := run(i)
				if err != nil {
					select {
					case errc <- err:
					default:
					}
					cancel()
					continue
				}
				results <- result{i, v}
			}
		}()
	}
	go func() { wg.Wait(); close(results) }()

	pending := make(map[int]T, window)
	want := first
	var deliverErr error
	for r := range results {
		pending[r.i] = r.v
		for {
			v, ok := pending[want]
			if !ok {
				break
			}
			delete(pending, want)
			if deliverErr == nil {
				if deliverErr = deliver(want, v); deliverErr != nil {
					cancel()
				}
			}
			want++
			<-tokens
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case err := <-errc:
		return err
	default:
	}
	if deliverErr != nil {
		return deliverErr
	}
	if want != n {
		return fmt.Errorf("pool: delivered %d of %d tasks without an error (dispatch bug)", want-first, n-first)
	}
	return nil
}
