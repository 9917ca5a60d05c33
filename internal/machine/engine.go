package machine

import (
	"container/heap"
	"fmt"
)

// The deterministic discrete-event simulation engine: an event heap
// ordered by (time, sequence) driving callback events. It is the
// substrate under the platform co-simulation (cosim.go) and the network
// models (network.go).

// Engine runs events in nondecreasing time order; ties break by
// scheduling order, making every simulation fully deterministic.
type Engine struct {
	now float64
	seq int64
	pq  eventHeap
}

type event struct {
	t   float64
	seq int64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// New creates an engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Schedule queues fn to run after delay seconds.
func (e *Engine) Schedule(delay float64, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("machine: negative event delay %g", delay))
	}
	e.At(e.now+delay, fn)
}

// At queues fn at absolute time t (not before now).
func (e *Engine) At(t float64, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("machine: event scheduled at %g before now %g", t, e.now))
	}
	e.seq++
	heap.Push(&e.pq, event{t: t, seq: e.seq, fn: fn})
}

// Run executes events until the queue drains and returns the final time.
func (e *Engine) Run() float64 {
	for e.pq.Len() > 0 {
		ev := heap.Pop(&e.pq).(event)
		e.now = ev.t
		ev.fn()
	}
	return e.now
}

// Pending returns the number of queued events (for tests).
func (e *Engine) Pending() int { return e.pq.Len() }

// Resource is a serially reusable facility modeled as a timeline: a
// request at time t occupies the resource from max(t, nextFree) for the
// given duration. It is the building block for links, buses, and ports.
type Resource struct {
	nextFree float64
	// BusySeconds accumulates total occupied time (utilization metric).
	BusySeconds float64
}

// Acquire reserves the resource for dur starting no earlier than t and
// returns the (start, end) of the reservation.
func (r *Resource) Acquire(t, dur float64) (start, end float64) {
	start = t
	if r.nextFree > start {
		start = r.nextFree
	}
	end = start + dur
	r.nextFree = end
	r.BusySeconds += dur
	return start, end
}

// NextFree returns the earliest time the resource is available.
func (r *Resource) NextFree() float64 { return r.nextFree }

// QueueDelay returns how long a request issued at t would wait.
func (r *Resource) QueueDelay(t float64) float64 {
	if r.nextFree > t {
		return r.nextFree - t
	}
	return 0
}
