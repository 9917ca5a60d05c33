package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/flux"
	"repro/internal/msg"
	"repro/internal/scheme"
	"repro/internal/serve"
	"repro/internal/shm"
	"repro/internal/solver"
)

// bytesPerPointStep is the memory traffic of one composite step per grid
// point, computed from the arrays each fused sweep reads and writes (8 B
// per value, every array counted once per sweep, caches and stencil
// reuse ignored):
//
//	StressFluxX        w(4) q.E(1)          → f(4)         9 values, twice
//	PredictXPrims      q(4) f(4)            → qp(4) wp(4) 16
//	CorrectXPrims      q(4) qp(4) fp(4)     → qn(4) w(4)  20
//	StressFluxRSource  w(4) q.E(1)          → f(4) src(1) 10 values, twice
//	PredictRPrims      q(4) f(4) src(1)     → qp(4) wp(4) 17
//	CorrectRRowsPrims  q(4) qp(4) fp(4) src → qn(4) w(4)  21
//
// (2·9 + 16 + 20 + 2·10 + 17 + 21) · 8 B = 896 B. It is a computed
// figure, not a measured one.
const bytesPerPointStep = 896

// perCall times fn after one warm-up call, repeating it for at least box,
// and returns nanoseconds per call. Calls are batched so that reading the
// clock stays a small share of microsecond-scale bodies.
func perCall(box time.Duration, fn func()) float64 {
	fn()
	calls, batch := 0, 1
	t0 := time.Now()
	for {
		for i := 0; i < batch; i++ {
			fn()
		}
		calls += batch
		el := time.Since(t0)
		if el >= box {
			return float64(el.Nanoseconds()) / float64(calls)
		}
		if el < box/8 {
			batch *= 2
		}
	}
}

// probes measures each layer from outside, by timing calls into its
// public functions on arrays of the workload's grid size, and stores the
// per-layer metrics in m. Each layer's calls run under one span.
func probes(tr *tracer, s spec, tiny bool, host hostFacts, m map[string]float64) error {
	box := 150 * time.Millisecond
	if tiny {
		box = time.Millisecond
	}
	var cfg core.Config
	if s.run != nil {
		cfg = *s.run
	} else {
		cfg = warmJob(s.serve).Config()
	}
	cc, err := cfg.Canonical()
	if err != nil {
		return err
	}
	run, err := core.NewRun(cfg)
	if err != nil {
		return err
	}
	defer run.Close()
	g, phys := run.Grid(), *cc.Jet
	points := float64(g.Nx * g.Nr)
	span := func(name string, parent int, fn func()) {
		id := tr.begin(name, parent)
		fn()
		tr.end(id)
	}

	// solver, then flux and scheme on the same slab's arrays.
	root := tr.begin("probe.solver", 0)
	var sol *solver.Serial
	span("solver.NewSerialProblemCFL", root, func() {
		sol, err = solver.NewSerialProblemCFL(phys, nil, g, solver.DefaultCFL)
	})
	if err != nil {
		return err
	}
	var stepNS float64
	span("solver.Run", root, func() { stepNS = perCall(4*box, func() { sol.Run(1) }) })
	sl := sol.Slab
	gm, visc, n, rows := sl.Gas, sl.Cfg.Viscous, sl.NxLoc, sl.NrLoc
	lamX, lamR := sl.Dt/(6*g.Dx), sl.Dt/(6*g.Dr)
	var fluxX, fluxR, schemeX, schemeR float64
	// The sweeps below read Q (never written here), so repeating them
	// does not march the state; their outputs land in scratch bundles.
	span("flux.StressFluxX", root, func() {
		fluxX = perCall(box, func() { flux.StressFluxX(gm, g.Dx, g.Dr, sl.R, sl.Q, sl.W, sl.F, 0, n, 0, rows, visc) })
	})
	span("scheme.PredictXPrims+CorrectXPrims", root, func() {
		schemeX = perCall(box, func() {
			scheme.PredictXPrims(scheme.L1, lamX, gm, sl.Q, sl.F, sl.QP, sl.WP, 0, n)
			scheme.CorrectXPrims(scheme.L1, lamX, gm, sl.Q, sl.QP, sl.FP, sl.QN, sl.W, 0, n, 1, n-1)
		})
	})
	span("flux.StressFluxRSource", root, func() {
		fluxR = perCall(box, func() {
			flux.StressFluxRSource(gm, g.Dx, g.Dr, sl.R, sl.Q, sl.W, sl.F, sl.Src, 0, n, 0, rows, visc)
		})
	})
	span("scheme.PredictRPrims+CorrectRRowsPrims", root, func() {
		schemeR = perCall(box, func() {
			scheme.PredictRPrims(scheme.L1, lamR, sl.Dt, gm, sl.RInv, sl.Q, sl.F, sl.QP, sl.WP, sl.Src, 0, n)
			scheme.CorrectRRowsPrims(scheme.L1, lamR, sl.Dt, gm, sl.RInv, sl.Q, sl.QP, sl.FP, sl.QN, sl.W, sl.SrcP, 0, n, 0, rows, 1, rows-1)
		})
	})
	tr.end(root)
	if sol.Diagnose().HasNaN {
		return fmt.Errorf("solver probe diverged")
	}
	m["flux.x_ns_pt"] = fluxX / points
	m["flux.r_ns_pt"] = fluxR / points
	m["scheme.x_ns_pt"] = schemeX / points
	m["scheme.r_ns_pt"] = schemeR / points
	m["solver.step_ms"] = stepNS / 1e6
	m["solver.mpoints_per_s"] = points / stepNS * 1e3
	// One step runs each flux sweep twice (predictor and corrector) and
	// each predict+correct pair once; the rest is boundary fills and
	// bookkeeping.
	m["solver.self_ms"] = (stepNS - (2*fluxX + schemeX + 2*fluxR + schemeR)) / 1e6
	flops := 0.0
	for _, c := range solver.ColCostFlops(phys, g) {
		flops += c
	}
	m["solver.flops_pt"] = flops / points
	m["solver.bytes_pt_computed"] = bytesPerPointStep
	solverGBs := bytesPerPointStep * points / stepNS // bytes per ns = GB/s

	// shm: one fork-join over an empty body.
	span("shm.Split", 0, func() {
		pool := shm.NewPool(width)
		defer pool.Close()
		m["shm.forkjoin_us"] = perCall(box, func() { pool.Split(0, width, func(lo, hi int) {}) }) / 1e3
	})

	// msg: round trip of a one-column and a one-row-strip payload.
	span("msg.SendRecv", 0, func() {
		m["msg.pingpong_col_us"] = pingpong(g.Nr, box) / 1e3
		m["msg.pingpong_row_us"] = pingpong(g.Nx, box) / 1e3
		m["msg.allocs_per_send"] = allocsPerSend(g.Nr)
	})

	// backend: the restartable propagator of the workload's backend.
	root = tr.begin("probe.backend", 0)
	opts := backend.Options{Procs: cc.Procs, Px: cc.Px, Pr: cc.Pr}
	if cc.FreshHalos {
		opts.Policy = solver.Fresh
	}
	var prop backend.Propagator
	t0 := time.Now()
	span("backend.NewPropagator", root, func() { prop, err = backend.NewPropagator(run.Backend(), phys, g, opts) })
	if err != nil {
		return err
	}
	defer prop.Close()
	m["backend.setup_ms"] = ms(time.Since(t0))
	prop.Advance(1)
	steps := max(2, int(float64(2*box.Nanoseconds())/stepNS))
	t0 = time.Now()
	span("backend.Advance", root, func() { prop.Advance(steps) })
	m["backend.advance_ms_step"] = ms(time.Since(t0)) / float64(steps)
	dst := flux.NewState(g.Nx, g.Nr)
	span("backend.State", root, func() { m["backend.gather_ms"] = perCall(box, func() { prop.State(dst) }) / 1e6 })
	tr.end(root)

	// core and serve: what a request pays around the solver.
	root = tr.begin("probe.serve", 0)
	span("core.Canonical", root, func() {
		m["core.canonical_us"] = perCall(box/4, func() { _, err = cfg.Canonical() }) / 1e3
	})
	span("serve.Key", root, func() {
		m["serve.key_us"] = perCall(box/4, func() { _, err = serve.Key(cfg) }) / 1e3
	})
	if err != nil {
		return err
	}
	sched := serve.New(serve.Options{})
	defer sched.Close()
	hit := core.Config{Backend: "serial", Nx: g.Nx, Nr: g.Nr, Steps: 2, Jet: cc.Jet}
	var rep *serve.Reply
	if rep, err = sched.Submit(hit); err != nil {
		return fmt.Errorf("priming the hit probe: %w", err)
	}
	span("serve.Submit", root, func() {
		m["serve.hit_us"] = perCall(box, func() { rep, err = sched.Submit(hit) }) / 1e3
	})
	if err != nil || !rep.Cached {
		return fmt.Errorf("hit probe was not served from the cache (err %v)", err)
	}
	span("serve.ResultOf", root, func() {
		m["serve.resultof_us"] = perCall(box, func() { serve.ResultOf("probe", rep, nil) }) / 1e3
	})
	tr.end(root)

	// mem: STREAM-style triad, single thread like the solver probe above.
	// Last, so its large arrays cannot disturb the other probes.
	elems := int(4 * host.LLCBytes / 8)
	if host.LLCBytes == 0 {
		elems = 4 * (64 << 20) / 8
	}
	if tiny {
		elems = 1 << 14
	}
	span("mem.triad", 0, func() { m["mem.triad_gbs"] = triadGBs(elems) })
	m["solver.bw_fraction"] = solverGBs / m["mem.triad_gbs"]
	warnf("triad: 3 arrays of %.0f MiB each, last-level cache %.0f MiB", float64(elems)*8/(1<<20), float64(host.LLCBytes)/(1<<20))
	return nil
}

// triadGBs runs a[i] = b[i] + s*c[i] over three arrays of n float64s and
// returns the best of four passes in GB/s, counting 24 B per element.
func triadGBs(n int) float64 {
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		a[i], b[i], c[i] = 0, 1, 2
	}
	best := time.Duration(1 << 62)
	for pass := 0; pass < 4; pass++ {
		t0 := time.Now()
		for i := range a {
			a[i] = b[i] + 3*c[i]
		}
		best = min(best, time.Since(t0))
	}
	runtime.KeepAlive(a)
	return 24 * float64(n) / float64(best.Nanoseconds())
}

const probeTag msg.Tag = 1

// pingpong returns nanoseconds per round trip of an n-float payload
// between two ranks on their own goroutines.
func pingpong(n int, box time.Duration) float64 {
	w := msg.NewWorld(2)
	a, b := w.Comm(0), w.Comm(1)
	out, in := make([]float64, n), make([]float64, n)
	echo := make([]float64, n)
	const trips = 256
	return perCall(box, func() {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < trips; i++ {
				b.Recv(0, probeTag, echo)
				b.Send(0, probeTag, echo)
			}
		}()
		for i := 0; i < trips; i++ {
			a.Send(1, probeTag, out)
			a.Recv(1, probeTag, in)
		}
		wg.Wait()
	}) / trips
}

// allocsPerSend counts heap allocations per Send+Recv pair once the
// world's payload free list is primed (the layer promises none).
func allocsPerSend(n int) float64 {
	w := msg.NewWorld(2)
	a, b := w.Comm(0), w.Comm(1)
	out, in := make([]float64, n), make([]float64, n)
	pair := func() {
		a.Send(1, probeTag, out)
		b.Recv(0, probeTag, in)
	}
	for i := 0; i < 8; i++ {
		pair()
	}
	const pairs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < pairs; i++ {
		pair()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / pairs
}
