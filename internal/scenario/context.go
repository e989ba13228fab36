package scenario

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"wmsn/internal/runner"
)

// ErrCanceled marks a run stopped by context cancellation or deadline
// expiry rather than by a configuration problem. Errors returned by
// RunContext, RunManyContext and RunEach wrap both ErrCanceled and the
// context's cause, so callers can test either:
//
//	errors.Is(err, scenario.ErrCanceled)        // canceled, any reason
//	errors.Is(err, context.DeadlineExceeded)    // specifically a deadline
var ErrCanceled = errors.New("scenario: run canceled")

// canceled wraps the context's cause in ErrCanceled.
func canceled(ctx context.Context) error {
	return fmt.Errorf("%w: %w", ErrCanceled, context.Cause(ctx))
}

// RunContext is RunE with cancellation: the run stops within one kernel
// event batch of ctx being canceled or its deadline expiring, returning a
// zero Result and an error wrapping ErrCanceled (see above). Cancellation is
// threaded through the kernel's interrupt flag, so the simulation itself —
// not just the wrapper — stops: a sweep whose client disconnected does not
// keep burning CPU to its horizon.
//
// A ctx that can never be canceled (context.Background, context.TODO) takes
// the exact RunE code path: no flag, no watcher, bit-identical results and
// allocation profile.
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, canceled(ctx)
	}
	return runContext(ctx, cfg)
}

// runContext builds and drives one run, arming the kernel interrupt only
// when ctx is cancelable.
func runContext(ctx context.Context, cfg Config) (Result, error) {
	// A sharded world's region kernels allocate their own events; its world
	// kernel and every radio lane still draw from, and return to, the arena.
	ar := arenas.get()
	n, err := buildE(cfg, ar)
	if err != nil {
		arenas.put(ar)
		return Result{}, err
	}
	var stop func() bool
	if ctx.Done() != nil {
		var flag atomic.Bool
		n.World.SetInterrupt(&flag)
		stop = context.AfterFunc(ctx, func() { flag.Store(true) })
	}
	res := n.RunTraffic()
	if stop != nil {
		stop()
	}
	n.World.ReleasePools()
	arenas.put(ar)
	if err := ctx.Err(); err != nil {
		// The world stopped mid-run; its summary is partial and misleading,
		// so report only the cancellation.
		return Result{}, canceled(ctx)
	}
	return res, nil
}

// RunEach executes every config on a bounded worker pool and streams each
// run's outcome to fn in submission-index order: fn is called exactly once
// per index, indices ascending, on the caller's goroutine — never with more
// than one run's results buffered per in-flight worker. A successful run
// delivers (i, result, nil); an invalid config delivers its validation
// error; after ctx is canceled every remaining index delivers an
// ErrCanceled-wrapping error (in-flight runs stop within one event batch,
// not-yet-started runs never start).
//
// The results delivered for completed runs are bit-identical to RunMany's:
// every run owns its kernel, RNG and world, and worker count only changes
// scheduling, never outcomes. RunEach returns the first (lowest-index)
// error, or nil when every run completed.
func RunEach(ctx context.Context, workers int, cfgs []Config, fn func(i int, r Result, err error)) error {
	var firstErr error
	runner.MapEach(workers, len(cfgs), func(i int) (Result, error) {
		return RunContext(ctx, cfgs[i])
	}, func(i int, r Result, err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if fn != nil {
			fn(i, r, err)
		}
	})
	return firstErr
}

// RunManyContext is RunMany with cancellation: results come back in cfgs
// order, and a canceled ctx stops every in-flight run within one event batch
// and prevents not-yet-started runs from starting. On error the returned
// slice still holds the results of runs that completed before cancellation
// (canceled or failed entries are zero Results); the error is the
// lowest-index failure, wrapping ErrCanceled for cancellations.
func RunManyContext(ctx context.Context, workers int, cfgs []Config) ([]Result, error) {
	out := make([]Result, len(cfgs))
	err := RunEach(ctx, workers, cfgs, func(i int, r Result, e error) {
		out[i] = r
	})
	return out, err
}
