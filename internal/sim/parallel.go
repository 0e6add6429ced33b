package sim

import (
	"sync"
	"sync/atomic"
)

// Parallel calls fn(0), fn(1), ..., fn(n-1) on up to workers goroutines,
// each claiming the next unclaimed index, and returns once every call
// has returned. With workers <= 1 it makes the calls in-line, in index
// order, and starts no goroutine. fn must be safe to run concurrently
// for distinct indices.
func Parallel(workers, n int, fn func(i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
