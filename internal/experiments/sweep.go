package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The sweep engine runs the independent points of a parameter sweep —
// one simulated machine per point — on a bounded worker pool. Every
// sweep-shaped experiment in this package (Table1Sim, the protocol
// bake-off, the line-size and scheduler ablations, the parallel make
// scaling study) submits its points through Sweep.
//
// Determinism contract (also documented in DESIGN.md):
//
//   - Every point builds its own machine with a fixed per-point seed, so
//     a point's result depends only on its index, never on scheduling.
//   - Results are collected in submission order: Sweep returns a slice
//     whose i'th element is the result of point i, regardless of which
//     worker ran it or when it finished.
//   - Consequently an experiment's Outcome.Text is byte-identical
//     whether the sweep ran on one worker or on GOMAXPROCS workers.
//
// Machines are not safe for concurrent use; the pool never shares a
// machine between workers — parallelism is strictly across points.

// Sweep runs fn(0), fn(1), ..., fn(n-1) on up to o.Workers goroutines
// (one per CPU when zero) and returns the results in submission (index)
// order. fn must be self-contained per point: it builds, runs, and
// measures its own machine and must not touch state shared with other
// points.
func Sweep[R any](o Options, n int, fn func(point int) R) []R {
	if n <= 0 {
		return nil
	}
	results := make([]R, n)
	workers := o.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			results[i] = fn(i)
		}
		return results
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				results[i] = fn(int(i))
			}
		}()
	}
	wg.Wait()
	return results
}

// SweepItems is Sweep over a slice: it runs fn on every element of items
// concurrently and returns the results in element order.
func SweepItems[T, R any](o Options, items []T, fn func(item T) R) []R {
	return Sweep(o, len(items), func(i int) R { return fn(items[i]) })
}
