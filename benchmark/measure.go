package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/trace"
)

// load is one workload ready to be measured.
type load interface {
	// prepare computes, untimed and once per process, the references
	// the correctness gate compares against.
	prepare() error
	// round takes one set-up sample and then runs one batch of jobs,
	// appending what it observed to rec.
	round(tr *tracer, rec *record)
	// finish runs checks that need the whole measured phase.
	finish(rec *record)
	// layer adds the per-layer metrics this workload's own jobs yield to
	// m, which already holds the probe results.
	layer(rec *record, m map[string]float64)
}

// record accumulates the observations of the measured rounds.
type record struct {
	setupS []float64 // one per round
	jobMS  []float64 // client-observed latency of every job
	// busy sums the walls of the job batches: jobs_per_s is ok / busy.
	busy                  time.Duration
	attempted, failed, ok int
	// violations are failed checks, each also counted in failed.
	violations []string

	tailMS         []float64 // Execute wall − Result.Elapsed, per run job
	coldOverheadMS []float64 // client latency − JobResult.ElapsedMS, per cold reply
	hitMS          []float64 // client latency of cached replies
	last           *core.Result
	stats          serve.Stats // /stats deltas summed over the measured rounds
}

// fail marks an already counted operation as failed and keeps the first
// few reasons.
func (r *record) fail(format string, args ...any) {
	r.failed++
	if len(r.violations) < 8 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// failOp counts one failed operation that is not a job (set-up, server
// start, a /stats check).
func (r *record) failOp(format string, args ...any) {
	r.attempted++
	r.fail(format, args...)
}

// measure discards one warm-up round, then repeats rounds until budget
// has elapsed (at least one). Between rounds, outside every timed region,
// the heap is collected and its free pages go back to the OS, so every
// set-up sample pays for its memory as a fresh process would; left to
// the background scavenger, a few-millisecond set-up reads 30 % apart
// depending on whether the pages happened to be still mapped.
func measure(l load, tr *tracer, budget time.Duration) *record {
	var warm record
	debug.FreeOSMemory() // also: the references prepare computed must not count towards the peak
	l.round(nil, &warm)
	rec := &record{}
	for _, v := range warm.violations {
		// A failing warm-up is a failing workload even though its times
		// are discarded.
		rec.failOp("warm-up: %s", v)
	}
	start := time.Now()
	for {
		debug.FreeOSMemory()
		l.round(tr, rec)
		if time.Since(start) >= budget {
			break
		}
	}
	l.finish(rec)
	return rec
}

// executeRun is the end-to-end unit of a run workload: NewRun, Execute,
// Close, each under its own span. It returns the result and the wall of
// Execute alone.
func executeRun(tr *tracer, parent int, cfg core.Config) (*core.Result, time.Duration, error) {
	id := tr.begin("core.NewRun", parent)
	run, err := core.NewRun(cfg)
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	id = tr.begin("core.Execute", parent)
	t0 := time.Now()
	res, err := run.Execute()
	wall := time.Since(t0)
	tr.end(id)
	id = tr.begin("core.Close", parent)
	run.Close()
	tr.end(id)
	return res, wall, err
}

// runLoad measures a run workload.
type runLoad struct {
	cfg core.Config
	// Serial reference of the same problem: every measured backend is
	// bitwise-serial by contract (exact halo policy, or no halos at all).
	refSum   string
	refSteps int
	refWall  time.Duration
}

func (l *runLoad) prepare() error {
	ref := core.Config{Backend: "serial", Nx: l.cfg.Nx, Nr: l.cfg.Nr, Steps: l.cfg.Steps,
		StopTol: l.cfg.StopTol, ReduceEvery: l.cfg.ReduceEvery, Jet: l.cfg.Jet}
	t0 := time.Now()
	res, _, err := executeRun(nil, 0, ref)
	l.refWall = time.Since(t0)
	if err != nil {
		return fmt.Errorf("serial reference: %w", err)
	}
	l.refSum, l.refSteps = serve.MomentumChecksum(res.Momentum), res.Steps
	return nil
}

func (l *runLoad) round(tr *tracer, rec *record) {
	// Set-up sample: the same configuration for one step — construction,
	// first touch, one step, diagnose, gather: what a run pays however
	// few steps it takes.
	one := l.cfg
	one.Steps = 1
	root := tr.begin("setup", 0)
	t0 := time.Now()
	_, _, err := executeRun(tr, root, one)
	rec.setupS = append(rec.setupS, time.Since(t0).Seconds())
	tr.end(root)
	if err != nil {
		rec.failOp("one-step run: %v", err)
	}
	runtime.GC()

	root = tr.begin("job", 0)
	t0 = time.Now()
	res, execWall, err := executeRun(tr, root, l.cfg)
	wall := time.Since(t0)
	tr.end(root)
	rec.attempted++
	rec.jobMS = append(rec.jobMS, ms(wall))
	rec.busy += wall
	switch {
	case err != nil: // includes NaN: Execute reports a diverged run as an error
		rec.fail("run: %v", err)
	case res.Steps != l.refSteps:
		rec.fail("ran %d steps, serial reference ran %d", res.Steps, l.refSteps)
	case serve.MomentumChecksum(res.Momentum) != l.refSum:
		rec.fail("momentum field differs from the serial reference")
	default:
		rec.ok++
		rec.tailMS = append(rec.tailMS, ms(execWall-res.Elapsed))
		rec.last = res
	}
}

func (l *runLoad) finish(*record) {}

func (l *runLoad) layer(rec *record, m map[string]float64) {
	m["core.execute_tail_ms"] = median(rec.tailMS)
	m["speedup_vs_serial"] = ms(l.refWall) / median(rec.jobMS)
	r := rec.last
	if r == nil {
		return
	}
	if l.cfg.StopTol > 0 {
		m["steps_to_converge"] = float64(r.Steps)
	}
	if len(r.PerRank) == 0 {
		return
	}
	var maxBusy, sumBusy time.Duration
	for _, rk := range r.PerRank {
		m["par.wait_share"] = max(m["par.wait_share"], rk.Wait.Seconds()/rk.Total.Seconds())
		maxBusy = max(maxBusy, rk.Busy)
		sumBusy += rk.Busy
	}
	m["par.busy_imbalance"] = maxBusy.Seconds() * float64(len(r.PerRank)) / sumBusy.Seconds()
	steps := float64(r.Steps)
	for class, c := range map[string]trace.Counters{"axial": r.CommDir.Axial, "radial": r.CommDir.Radial, "reduce": r.CommDir.Reduce} {
		m["par.startups_step."+class] = float64(c.Startups) / steps
		m["par.bytes_step."+class] = float64(c.Bytes) / steps
	}
}

// newLoad builds the load of a workload.
func newLoad(s spec, seed int64) load {
	if s.run != nil {
		return &runLoad{cfg: *s.run}
	}
	return &serveLoad{spec: s.serve, gen: newTraffic(seed)}
}

func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
}
