package experiments

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"charonsim/internal/sim"
)

// forEach runs fn(i) for every i in [0, n) on at most par concurrent
// workers and returns the lowest-index error (nil if none). Callers write
// results into index i of a preallocated slice, so assembling the final
// (map-shaped, rendered) output in index order afterwards yields output
// byte-identical to a serial loop at any parallelism level.
//
// With par <= 1 the loop runs serially and stops at the first error,
// exactly like the pre-parallel harness; with par > 1 every index runs
// (work after a failing index is wasted, not wrong — simulation units are
// independent and side-effect-free beyond session memoization) and the
// reported error is still the one a serial loop would have hit first.
//
// Every invocation is panic-guarded: a panicking run (a faulted scenario
// tripping an invariant, say) becomes that index's error instead of
// killing the whole sweep.
func forEach(par, n int, fn func(i int) error) error {
	return forEachCtx(context.Background(), par, 0, n, fn)
}

// forEachCtx is the full-featured pool: a per-run wall-clock budget
// (zero disables it) and cooperative cancellation. When ctx is cancelled
// no new index is dispatched; indexes never dispatched report ctx.Err()
// so the sweep's error reflects the interruption, while already-running
// indexes finish (or hit their own watchdog) and keep their results —
// that is what makes an interrupted sweep's completed prefix flushable.
// A timed-out run's goroutine cannot be cancelled (the simulation is
// pure CPU); it is abandoned to finish in the background and its late
// result discarded.
func forEachCtx(ctx context.Context, par int, timeout time.Duration, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if par > n {
		par = n
	}
	run := func(i int) error { return runGuarded(ctx, i, timeout, fn) }
	if par <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("experiments: run %d not started: %w", i, err)
			}
			if err := run(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = run(i)
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			// Undispatched indexes never reach a worker, so writing their
			// error slots here is race-free.
			for j := i; j < n; j++ {
				errs[j] = fmt.Errorf("experiments: run %d not started: %w", j, ctx.Err())
			}
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runGuarded invokes fn(i) with panic recovery and an optional wall-clock
// budget. A sim.Aborted panic (the watchdog's structured escape) keeps its
// wrapped error, so errors.Is against sim.ErrNoProgress or
// context.Canceled works on the sweep's error; any other panic is
// formatted with its stack.
func runGuarded(ctx context.Context, i int, timeout time.Duration, fn func(i int) error) (err error) {
	guarded := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				if ab, ok := r.(sim.Aborted); ok {
					err = fmt.Errorf("experiments: run %d aborted: %w", i, ab.Err)
					return
				}
				err = fmt.Errorf("experiments: run %d panicked: %v\n%s", i, r, debug.Stack())
			}
		}()
		return fn(i)
	}
	if timeout <= 0 {
		return guarded()
	}
	done := make(chan error, 1) // buffered: a late finisher must not block
	go func() { done <- guarded() }()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case err = <-done:
		return err
	case <-timer.C:
		return fmt.Errorf("experiments: run %d exceeded the %v run timeout", i, timeout)
	case <-ctx.Done():
		return fmt.Errorf("experiments: run %d interrupted: %w", i, ctx.Err())
	}
}

// ForEach exposes the bounded worker pool: charonsim.RunAll fans the
// experiment list out through it so the whole suite shares one concurrency
// discipline.
func ForEach(par, n int, fn func(i int) error) error { return forEach(par, n, fn) }

// ForEachCtx is ForEach with cooperative cancellation: once ctx is
// cancelled no further index is dispatched and the undispatched indexes
// report ctx.Err().
func ForEachCtx(ctx context.Context, par, n int, fn func(i int) error) error {
	return forEachCtx(ctx, par, 0, n, fn)
}

// forEach binds the pool to the session configuration: Parallelism bounds
// the workers, RunTimeout budgets each run, and Ctx cancels dispatch.
func (c Config) forEach(n int, fn func(i int) error) error {
	return forEachCtx(c.Ctx, c.Parallelism, c.RunTimeout, n, fn)
}

// forEachGrid is the Config-bound pool over an n-by-m index grid,
// flattened row-major so all n*m cells can run concurrently.
func (c Config) forEachGrid(n, m int, fn func(i, j int) error) error {
	return c.forEach(n*m, func(k int) error {
		return fn(k/m, k%m)
	})
}
