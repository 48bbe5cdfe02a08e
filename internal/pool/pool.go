// Package pool provides the bounded worker pool that runs independent
// whole simulations — the sweep driver's scenarios and the seeds of
// `precinct-sim check`: N jobs executed on at most W goroutines, with first-error abort
// and panic propagation.
package pool

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// A capturedPanic wraps a job panic so it can be re-raised on the
// caller's goroutine with the origin attached.
type capturedPanic struct {
	job   int
	value any
	stack []byte
}

// Run executes job(0..n-1) on a worker pool. workers <= 0 uses
// GOMAXPROCS; the pool never spawns more workers than jobs. The first
// error aborts the pool: already-running jobs finish, queued jobs are
// skipped, and the returned error joins every job error that occurred.
//
// A panicking job does not deadlock the pool: the panic is captured,
// the remaining queue drains, and the first panic is re-raised on the
// calling goroutine once every worker has stopped.
func Run(n, workers int, job func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	errs := make([]error, n)

	// Buffering the queue lets it be filled and closed up front, so
	// workers observing the abort flag can drain the remainder without a
	// producer goroutine blocking on sends.
	jobs := make(chan int, n)
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)

	var aborted atomic.Bool
	var panicked atomic.Pointer[capturedPanic]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if aborted.Load() {
					continue
				}
				if err := runOne(i, job, &panicked); err != nil {
					errs[i] = err
					aborted.Store(true)
				}
			}
		}()
	}
	wg.Wait()

	if cp := panicked.Load(); cp != nil {
		panic(fmt.Sprintf("pool: job %d panicked: %v\n%s", cp.job, cp.value, cp.stack))
	}
	return errors.Join(errs...)
}

// runOne isolates one job invocation so a panic unwinds only the job,
// not the worker loop. The first panic is recorded and doubles as an
// abort signal.
func runOne(i int, job func(i int) error, panicked *atomic.Pointer[capturedPanic]) (err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 16<<10)
			buf = buf[:runtime.Stack(buf, false)]
			cp := &capturedPanic{job: i, value: r, stack: buf}
			panicked.CompareAndSwap(nil, cp)
			err = fmt.Errorf("pool: job %d panicked: %v", i, r)
		}
	}()
	return job(i)
}
