// Package shm is the shared-memory parallelization the paper used on
// the Cray Y-MP: DOALL loop-level parallelism. A persistent worker pool
// executes each of the solver's column loops as a fork-join parallel
// region — the moral equivalent of the Cray compiler's DOALL directive,
// with the goroutine wake-up playing the role of the Y-MP's loop
// dispatch overhead.
//
// The paper partitioned "along the orthogonal direction of the sweep to
// keep the vector lengths large": our radial sweeps are likewise
// partitioned across axial columns, and the axial sweeps keep the inner
// radial loop contiguous (stride-1) within each chunk.
package shm

import (
	"fmt"
	"sync"
)

// Pool is a fixed set of workers executing fork-join range splits.
type Pool struct {
	workers int
	tasks   chan task
	closed  bool
	// wg is the fork-join barrier, owned by the pool: Split is only ever
	// invoked from the pool's single orchestrating goroutine (each slab
	// drives its own pool), so one reusable WaitGroup replaces the
	// per-call allocation that used to escape through the task channel.
	wg sync.WaitGroup
}

type task struct {
	lo, hi int
	fn     func(lo, hi int)
	wg     *sync.WaitGroup
}

// NewPool starts n persistent workers.
func NewPool(n int) *Pool {
	if n < 1 {
		panic(fmt.Sprintf("shm: invalid pool size %d", n))
	}
	p := &Pool{workers: n, tasks: make(chan task)}
	for i := 0; i < n; i++ {
		go func() {
			for t := range p.tasks {
				t.fn(t.lo, t.hi)
				t.wg.Done()
			}
		}()
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Split implements solver.ParallelFor: [lo, hi) is divided into one
// contiguous chunk per worker and executed concurrently; Split returns
// when all chunks complete (the DOALL join).
func (p *Pool) Split(lo, hi int, fn func(lo, hi int)) {
	n := hi - lo
	if n <= 0 {
		return
	}
	chunks := p.workers
	if chunks > n {
		chunks = n
	}
	if chunks == 1 {
		fn(lo, hi)
		return
	}
	p.wg.Add(chunks)
	base, rem := n/chunks, n%chunks
	pos := lo
	for c := 0; c < chunks; c++ {
		w := base
		if c < rem {
			w++
		}
		p.tasks <- task{lo: pos, hi: pos + w, fn: fn, wg: &p.wg}
		pos += w
	}
	p.wg.Wait()
}

// Close stops the workers. The pool must not be used afterwards.
func (p *Pool) Close() {
	if !p.closed {
		p.closed = true
		close(p.tasks)
	}
}
