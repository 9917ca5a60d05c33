// Package serve turns the one-shot core.Config → Run → Result pipeline
// into a multi-tenant service: a queued run scheduler that packs
// concurrently executing solver runs onto the machine, a config-hash
// result cache in front of it, and shared immutable per-scenario data
// behind it. It is the first place two solver runs execute
// concurrently inside one process, which is why the name tables,
// lifecycle, and parity tests around it are concurrency-hardened.
//
// Request flow of Submit:
//
//  1. the Config is canonicalized (core.Config.Canonical — zero-value
//     defaults, scenario expansion, halo-policy aliasing) and
//     hashed field by field (the key is derived from the struct
//     definition, see keyPlan), so every alias spelling of the same run
//     shares one cache line and no field can be left out of it;
//  2. the cache is consulted with single-flight semantics: a hit
//     returns the completed result (bitwise-identical to a cold run),
//     a duplicate of an in-flight run waits for that run instead of
//     recomputing;
//  3. a cold run passes admission control — a bounded FIFO wait queue
//     (load beyond it is shed with ErrBusy) feeding a weighted slot
//     pool: each run occupies its parallel width (ranks or shm workers
//     × per-rank workers, see widthOf) so the summed width of executing
//     runs never exceeds the machine's Slots;
//  4. the run executes through core.NewRun/Execute, its momentum
//     checksum is computed once, and result and checksum are published
//     to every waiter.
//
// A cache line is immutable once published. The wire paths (Handler,
// Batch) encode their replies straight from it, so a hit costs a map
// lookup and a small JSON encode; Submit hands library callers a
// private copy they may mutate.
//
// The per-job cost estimate comes from the cost-weighted decomposition
// machinery of internal/solver: the analytic per-column FLOP profile
// (solver.ColCostFlops) integrated over the scenario grid prices each
// job, computed once per scenario/resolution and shared by every job
// of it.
package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/solver"
)

// Submission errors.
var (
	// ErrBusy reports admission-control load shedding: the wait queue
	// is at MaxQueue. The job was not started; resubmit later.
	ErrBusy = errors.New("serve: admission queue full, resubmit later")
	// ErrClosed reports a Submit after Close.
	ErrClosed = errors.New("serve: scheduler closed")
)

// Options configures a Scheduler. The zero value picks host defaults.
type Options struct {
	// Slots is the machine width the scheduler packs runs onto: the
	// summed admission width (ranks or shm workers × per-rank workers,
	// clamped to Slots) of concurrently executing runs never exceeds
	// it. Zero picks runtime.NumCPU().
	Slots int
	// MaxQueue bounds the runs waiting for slots; a cold submission
	// beyond it fails fast with ErrBusy instead of queuing unboundedly
	// (cache hits and coalesced duplicates are never shed — they hold
	// no slots). Zero picks 256.
	MaxQueue int
}

// Stats is a point-in-time snapshot of the scheduler counters.
type Stats struct {
	Slots    int `json:"slots"`
	MaxQueue int `json:"max_queue"`
	// Queued and Running are instantaneous occupancy.
	Queued  int `json:"queued"`
	Running int `json:"running"`
	// Completed counts cold runs served, Failures cold runs that
	// errored, Rejected submissions shed by admission control.
	Completed uint64 `json:"completed"`
	Failures  uint64 `json:"failures"`
	Rejected  uint64 `json:"rejected"`
	// CacheHits counts results served from the config-hash cache
	// (including duplicates coalesced onto an in-flight run);
	// CacheMisses counts cold runs started.
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
	CacheEntries int    `json:"cache_entries"`
	// PerScenario counts served jobs (cold completions and cache hits)
	// by scenario name — the traffic mix of the service.
	PerScenario map[string]uint64 `json:"per_scenario,omitempty"`
	// SharedProfiles counts the per-(scenario, resolution) cost
	// profiles shared across all jobs touching them.
	SharedProfiles int `json:"shared_profiles"`
	// FlopsServed integrates the analytic cost estimate of completed
	// cold runs (cache hits serve the same physics for free).
	FlopsServed float64       `json:"flops_served"`
	Uptime      time.Duration `json:"uptime_ns"`
	// RunsPerHour is served jobs (cold completions + cache hits) per
	// hour of uptime — the service-throughput headline.
	RunsPerHour float64 `json:"runs_per_hour"`
	// HitRate is CacheHits over all served jobs.
	HitRate float64 `json:"hit_rate"`
}

// Scheduler is the multi-tenant run service. Safe for concurrent use;
// construct with New.
type Scheduler struct {
	slots    int
	maxQueue int
	sem      *fifoSem
	start    time.Time
	closed   atomic.Bool

	mu          sync.Mutex
	results     map[string]*entry
	shared      map[sharedKey]float64 // analytic flops per composite step
	queued      int
	running     int
	flops       float64
	perScenario map[string]uint64

	hits, misses, completed, failures, rejected atomic.Uint64
}

// entry is one cache line with single-flight semantics: the first
// submitter of a key computes, everyone else waits on done. Successful
// entries stay forever (the result cache); failed ones are removed so
// a retry recomputes. res and sum are written once, before done is
// closed, and never again.
type entry struct {
	done chan struct{}
	res  *core.Result
	sum  string // MomentumChecksum(res.Momentum)
	err  error
}

// sharedKey identifies one scenario resolution, the unit the analytic
// cost profile is computed for.
type sharedKey struct {
	scenario string
	nx, nr   int
}

// New builds a scheduler.
func New(o Options) *Scheduler {
	if o.Slots <= 0 {
		o.Slots = runtime.NumCPU()
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 256
	}
	return &Scheduler{
		slots:       o.Slots,
		maxQueue:    o.MaxQueue,
		sem:         newFifoSem(o.Slots),
		start:       time.Now(),
		results:     map[string]*entry{},
		shared:      map[sharedKey]float64{},
		perScenario: map[string]uint64{},
	}
}

// Reply is one served job.
type Reply struct {
	// Result is a private copy (Submit copies the shared cache line) —
	// mutating it cannot corrupt the cache.
	Result *core.Result
	// Checksum is MomentumChecksum of the cached field, computed once
	// by the cold run that produced it and shared by every reply.
	Checksum string
	// Cached reports a config-hash cache hit (including coalescing onto
	// an in-flight duplicate). The physics fields of a cached Result
	// are bitwise-identical to what a cold run of the same canonical
	// config produces; Elapsed is the cold run's solver time.
	Cached bool
	// Key is the canonical config hash, the cache identity of the job.
	Key string
}

// Submit serves one configuration, blocking until the result is
// available: from the cache, from an in-flight duplicate, or from a
// cold run admitted through the slot pool. Safe to call from any number
// of goroutines; FIFO admission means no cold job is starved.
func (s *Scheduler) Submit(cfg core.Config) (*Reply, error) {
	rep, err := s.serve(cfg)
	if err != nil {
		return nil, err
	}
	rep.Result = copyResult(rep.Result)
	return rep, nil
}

// Batch serves jobs concurrently and returns their wire results in
// submission order. A job that fails carries its error in its result.
func (s *Scheduler) Batch(jobs []Job) []JobResult {
	results := make([]JobResult, len(jobs))
	var wg sync.WaitGroup
	for i, job := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := s.serve(job.Config())
			results[i] = ResultOf(job.ID, rep, err)
		}()
	}
	wg.Wait()
	return results
}

// serve is Submit without the copy: the reply's Result is the shared
// cache line, which callers only read.
func (s *Scheduler) serve(cfg core.Config) (*Reply, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	cc, err := cfg.Canonical()
	if err != nil {
		return nil, err
	}
	key := keyOf(cc)
	perStep, err := s.flopsPerStep(cc)
	if err != nil {
		return nil, err
	}
	width, err := s.widthOf(cc)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	if e, ok := s.results[key]; ok {
		s.mu.Unlock()
		<-e.done
		if e.err != nil {
			// The coalesced leader failed; surface its error without
			// counting a hit (nothing was served).
			return nil, e.err
		}
		s.hits.Add(1)
		s.mu.Lock()
		s.perScenario[cc.Scenario]++
		s.mu.Unlock()
		return &Reply{Result: e.res, Checksum: e.sum, Cached: true, Key: key}, nil
	}
	if s.queued >= s.maxQueue {
		s.mu.Unlock()
		s.rejected.Add(1)
		return nil, ErrBusy
	}
	e := &entry{done: make(chan struct{})}
	s.results[key] = e
	s.queued++
	s.mu.Unlock()
	s.misses.Add(1)

	s.sem.acquire(width)
	s.mu.Lock()
	s.queued--
	s.running++
	s.mu.Unlock()

	res, err := runCold(cc)

	s.sem.release(width)
	var sum string
	if err == nil {
		sum = MomentumChecksum(res.Momentum)
	}
	s.mu.Lock()
	s.running--
	if err != nil {
		delete(s.results, key)
	} else {
		s.flops += perStep * float64(res.Steps)
		s.perScenario[cc.Scenario]++
	}
	s.mu.Unlock()
	e.res, e.sum, e.err = res, sum, err
	close(e.done)
	if err != nil {
		s.failures.Add(1)
		return nil, err
	}
	s.completed.Add(1)
	return &Reply{Result: res, Checksum: sum, Cached: false, Key: key}, nil
}

// runCold executes the canonical configuration once.
func runCold(cc core.Config) (*core.Result, error) {
	run, err := core.NewRun(cc)
	if err != nil {
		return nil, err
	}
	defer run.Close()
	return run.Execute()
}

// widthOf is the admission width of a canonical config: the goroutines
// the run computes on (backend.Width) clamped to the slot pool, so an
// oversubscribed job degenerates to "the whole machine" instead of
// never being admitted.
func (s *Scheduler) widthOf(cc core.Config) (int, error) {
	w, err := backend.Width(cc.Backend, backend.Options{Procs: cc.Procs, Workers: cc.Workers})
	if err != nil {
		return 0, err
	}
	return min(max(w, 1), s.slots), nil
}

// flopsPerStep prices one composite step of the job's scenario
// resolution with the analytic per-column cost profile, computing it on
// first use.
func (s *Scheduler) flopsPerStep(cc core.Config) (float64, error) {
	k := sharedKey{scenario: cc.Scenario, nx: cc.Nx, nr: cc.Nr}
	s.mu.Lock()
	total, ok := s.shared[k]
	s.mu.Unlock()
	if ok {
		return total, nil
	}
	sc, err := scenario.Get(cc.Scenario)
	if err != nil {
		return 0, err
	}
	g, err := sc.Grid(cc.Nx, cc.Nr)
	if err != nil {
		return 0, err
	}
	for _, w := range solver.ColCostFlops(*cc.Jet, g) { // canonical configs carry the resolved physics
		total += w
	}
	s.mu.Lock()
	s.shared[k] = total // racing builders store the same number
	s.mu.Unlock()
	return total, nil
}

// Stats snapshots the counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	queued, running := s.queued, s.running
	entries := len(s.results)
	profiles := len(s.shared)
	flops := s.flops
	var perScenario map[string]uint64
	if len(s.perScenario) > 0 {
		perScenario = make(map[string]uint64, len(s.perScenario))
		for k, v := range s.perScenario {
			perScenario[k] = v
		}
	}
	s.mu.Unlock()
	st := Stats{
		Slots:          s.slots,
		MaxQueue:       s.maxQueue,
		Queued:         queued,
		Running:        running,
		Completed:      s.completed.Load(),
		Failures:       s.failures.Load(),
		Rejected:       s.rejected.Load(),
		CacheHits:      s.hits.Load(),
		CacheMisses:    s.misses.Load(),
		CacheEntries:   entries,
		PerScenario:    perScenario,
		SharedProfiles: profiles,
		FlopsServed:    flops,
		Uptime:         time.Since(s.start),
	}
	served := st.Completed + st.CacheHits
	if h := st.Uptime.Hours(); h > 0 {
		st.RunsPerHour = float64(served) / h
	}
	if served > 0 {
		st.HitRate = float64(st.CacheHits) / float64(served)
	}
	return st
}

// Close marks the scheduler closed: later Submits fail with ErrClosed.
// Submissions already inside Submit run to completion.
func (s *Scheduler) Close() { s.closed.Store(true) }

// String summarizes the stats (CLI status lines).
func (st Stats) String() string {
	return fmt.Sprintf("served=%d (cold=%d cached=%d, hit-rate %.0f%%) failures=%d rejected=%d queued=%d running=%d cache=%d entries shared=%d profiles %.3g flops",
		st.Completed+st.CacheHits, st.Completed, st.CacheHits, 100*st.HitRate,
		st.Failures, st.Rejected, st.Queued, st.Running, st.CacheEntries, st.SharedProfiles, st.FlopsServed)
}
