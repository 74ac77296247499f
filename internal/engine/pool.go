package engine

import (
	"runtime"
	"sync"
)

// Fan runs fn(i) for every i in [0, n) on at most `workers` goroutines and
// waits for all of them. workers ≤ 0 means GOMAXPROCS. Indices are handed
// out in order through a channel, so early finishers steal remaining work
// (no static striping: one slow query cannot idle a whole stripe).
func Fan(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}
