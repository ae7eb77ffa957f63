package engine

import (
	"context"
	"runtime"
	"sync"
)

// ForEachWSCtx runs fn for every index 0..n-1 across min(GOMAXPROCS, n)
// worker goroutines. Each worker goroutine gets one workspace from get and
// returns it through put when its share of the work is done, so a caller
// with a long-lived workspace pool (an Evaluator's sync.Pool) recycles
// buffers across calls. fn must record results and errors into
// index-addressed slices it owns, which keeps aggregation deterministic
// regardless of scheduling. Once ctx is done, no further index is
// dispatched and ForEachWSCtx returns ctx's error after the in-flight
// tasks finish. Tasks already handed to a worker always run to
// completion — long tasks are expected to poll ctx at their own
// checkpoints — so index-addressed result slices never hold a value from
// a half-finished fn. All worker goroutines have exited by the time
// ForEachWSCtx returns, canceled or not.
func ForEachWSCtx(ctx context.Context, n int, get func() *Workspace, put func(*Workspace), fn func(ws *Workspace, i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	done := ctx.Done()
	if workers == 1 {
		ws := get()
		defer put(ws)
		for i := 0; i < n; i++ {
			if done != nil {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			fn(ws, i)
		}
		return nil
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := get()
			defer put(ws)
			for i := range next {
				fn(ws, i)
			}
		}()
	}
	// A receive from a nil done channel blocks forever, so with a
	// background context this select degenerates to the plain send. The
	// explicit Err check matters when both cases are ready: select picks
	// randomly, so without it a canceled context with idle workers would
	// keep dispatching about half the time.
dispatch:
	for i := 0; i < n; i++ {
		if done != nil && ctx.Err() != nil {
			break dispatch
		}
		select {
		case next <- i:
		case <-done:
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	return ctx.Err()
}
