package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// normalizeWorkers clamps a requested worker count to [1, n], defaulting
// to GOMAXPROCS.
func normalizeWorkers(requested, n int) int {
	workers := requested
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// PanicError is a worker panic recovered by the supervised pool. The
// sweep survives: the panic is converted into a per-index error instead
// of killing the process.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("worker panic: %v", e.Value)
}

// IndexError ties a sweep failure to the index that failed.
type IndexError struct {
	Index int
	Err   error
}

func (e *IndexError) Error() string { return fmt.Sprintf("index %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *IndexError) Unwrap() error { return e.Err }

// ErrSweepAborted marks a supervised sweep that stopped before visiting
// every index, because its failure budget was exhausted.
var ErrSweepAborted = errors.New("core: sweep aborted")

// superviseFor runs fn(worker, i) for every i in [0, n) across workers
// goroutines. Indices are handed out from a lock-free atomic counter and
// callers write results at distinct indices, so the only synchronized
// state is the counter and the failure list.
//
// Unlike a naive parallel loop, the pool is supervised:
//
//   - a panic in fn is recovered into a *PanicError and treated as that
//     index's failure — one bad layout cannot kill the process;
//   - failures do not abort the sweep immediately: up to budget failed
//     indices are tolerated and reported in the returned slice (sorted by
//     index), letting callers degrade instead of discarding completed work;
//   - once more than budget indices have failed the pool stops handing
//     out new indices and returns ErrSweepAborted joined with every
//     recorded failure;
//   - ctx cancellation (nil means context.Background()) likewise drains
//     the pool and returns the cancellation cause.
//
// All workers have exited when superviseFor returns, whatever the
// outcome: the pool never leaks goroutines.
func superviseFor(ctx context.Context, workers, n, budget int, fn func(worker, i int) error) ([]*IndexError, error) {
	return superviseForT(ctx, workers, n, budget, nil, fn)
}

// superviseForT is superviseFor with optional telemetry (see
// superviseChunksT): it is superviseChunksT with chunks of one index.
func superviseForT(ctx context.Context, workers, n, budget int, tel *supTel, fn func(worker, i int) error) ([]*IndexError, error) {
	return superviseChunksT(ctx, workers, n, 1, budget, tel, func(w, i, _ int, fail func(int, error), _ func() bool) {
		if err := fn(w, i); err != nil {
			fail(i, err)
		}
	})
}

// superviseChunksT is superviseFor with chunked dispatch and optional
// telemetry: indices are handed out as contiguous chunks of up to chunk
// indices, and fn processes one chunk per call, reporting per-index
// failures through its fail callback. The chunk is a unit of dispatch,
// never of failure — one bad index fails alone and the rest of its
// chunk proceeds — so the failure budget, abort and cancellation
// semantics are superviseFor's index for index. fn is expected to guard
// its own per-index work; a panic escaping fn itself is recovered and
// attributed to the chunk's first index. stopped reports whether the
// sweep is over (canceled, or the budget exceeded); a chunk that works
// through its indices one by one checks it between indices so an abort
// lands within one index, as with chunks of one.
//
// Per-worker busy/idle time and per-index queue wait flow into tel's
// instruments. A nil tel keeps the loop free of clock reads.
func superviseChunksT(ctx context.Context, workers, n, chunk, budget int, tel *supTel, fn func(worker, lo, hi int, fail func(i int, err error), stopped func() bool)) ([]*IndexError, error) {
	if n <= 0 {
		return nil, nil
	}
	if chunk < 1 {
		chunk = 1
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if budget < 0 {
		budget = 0
	}
	nChunks := (n + chunk - 1) / chunk
	var (
		next   atomic.Int64
		stop   atomic.Bool
		mu     sync.Mutex
		failed []*IndexError
		wg     sync.WaitGroup
	)
	fail := func(i int, err error) {
		mu.Lock()
		failed = append(failed, &IndexError{Index: i, Err: err})
		if len(failed) > budget {
			stop.Store(true)
		}
		mu.Unlock()
	}
	done := ctx.Done()
	canceled := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	stopped := func() bool { return stop.Load() || canceled() }
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var born, free time.Time
			var busy time.Duration
			if tel != nil {
				born = time.Now()
				free = born
				defer func() {
					tel.busy.Add(busy.Seconds())
					tel.idle.Add((time.Since(born) - busy).Seconds())
				}()
			}
			for {
				if stopped() {
					return
				}
				ci := int(next.Add(1)) - 1
				if ci >= nChunks {
					return
				}
				lo := ci * chunk
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				var t0 time.Time
				if tel != nil {
					t0 = time.Now()
					// Every index in the chunk spent this gap queued
					// behind the worker, so the wait histogram keeps its
					// per-index cardinality under chunked dispatch.
					wait := t0.Sub(free).Seconds()
					for i := lo; i < hi; i++ {
						tel.wait.Observe(wait)
					}
				}
				if err := Guard(func() error {
					fn(w, lo, hi, fail, stopped)
					return nil
				}); err != nil {
					fail(lo, err)
				}
				if tel != nil {
					free = time.Now()
					busy += free.Sub(t0)
				}
			}
		}(w)
	}
	wg.Wait()
	sort.Slice(failed, func(a, b int) bool { return failed[a].Index < failed[b].Index })
	if canceled() {
		errs := make([]error, 0, len(failed)+1)
		errs = append(errs, context.Cause(ctx))
		for _, f := range failed {
			errs = append(errs, f)
		}
		return failed, errors.Join(errs...)
	}
	if len(failed) > budget {
		errs := make([]error, 0, len(failed)+1)
		errs = append(errs, fmt.Errorf("%w: %d failures exceed budget %d", ErrSweepAborted, len(failed), budget))
		for _, f := range failed {
			errs = append(errs, f)
		}
		return failed, errors.Join(errs...)
	}
	return failed, nil
}

// Guard runs fn, converting a panic into a *PanicError — the
// conversion the supervisor applies to every attempt, so an injected
// panic in a seam is one more retriable failure instead of a dead
// process.
func Guard(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// parallelFor is the zero-tolerance form of superviseFor: the first
// failed index aborts the sweep and is returned (joined with
// ErrSweepAborted). Panics are still recovered, workers still drain.
func parallelFor(workers, n int, fn func(worker, i int) error) error {
	_, err := superviseFor(context.Background(), workers, n, 0, fn)
	return err
}
