package engine

import (
	"context"
	"fmt"

	"closnet/internal/obs"
)

// BatchResult is one slot of a RunBatch outcome: the response of the
// request at the same index, or the error that stopped it. Exactly one
// of the fields is set.
type BatchResult struct {
	Resp *Response
	Err  error
}

// Runner computes one request of a batch; i is the request's index in
// the batch, for transports that keep per-item side state. The default
// computes the request as Engine.Run does; transports substitute their
// own pipeline (the HTTP server routes each item through its result
// cache and singleflight group) so batch items behave exactly like
// single calls.
type Runner func(ctx context.Context, i int, req Request) (*Response, error)

// RunBatch computes the requests with bounded fan-out: at most workers
// computations in flight at once (workers <= 0 means len(reqs)), every
// item run through run, results in request order regardless of
// completion order. One failing item does not stop the others — its
// slot carries the error. ctx cancellation drains the fan-out: items
// not yet started return ctx.Err() without computing. A nil run
// prepares every request in order first (PrepareBatch) and then
// computes each as Run would, with the same response or error.
func (e *Engine) RunBatch(ctx context.Context, reqs []Request, workers int, run Runner) []BatchResult {
	if run == nil {
		preps, errs := e.PrepareBatch(reqs)
		run = func(ctx context.Context, i int, _ Request) (*Response, error) {
			if errs[i] != nil {
				return nil, errs[i]
			}
			return e.respond(ctx, preps[i])
		}
	}
	if workers <= 0 || workers > len(reqs) {
		workers = len(reqs)
	}
	results := make([]BatchResult, len(reqs))
	if len(reqs) == 0 {
		return results
	}
	if j := e.Obs().Journal(); j != nil {
		j.Emit("engine.batch", obs.F{"items": len(reqs), "workers": workers})
	}

	// Work-stealing off a channel of indices keeps the result ordering
	// trivially deterministic: slot i is written only by the goroutine
	// that claimed index i.
	idx := make(chan int)
	done := make(chan struct{})
	// runOne isolates one item so a panicking Runner is recovered into
	// the item's error slot instead of killing the worker goroutine —
	// a dead worker would never signal done and the collector below
	// would block forever.
	runOne := func(i int) (res BatchResult) {
		defer func() {
			if r := recover(); r != nil {
				res = BatchResult{Err: fmt.Errorf("engine: batch item %d: runner panicked: %v", i, r)}
			}
		}()
		if err := ctx.Err(); err != nil {
			return BatchResult{Err: err}
		}
		resp, err := run(ctx, i, reqs[i])
		if err != nil {
			return BatchResult{Err: err}
		}
		return BatchResult{Resp: resp}
	}
	for w := 0; w < workers; w++ {
		go func() {
			for i := range idx {
				results[i] = runOne(i)
				done <- struct{}{}
			}
		}()
	}
	go func() {
		for i := range reqs {
			idx <- i
		}
		close(idx)
	}()
	for range reqs {
		<-done
	}
	return results
}
