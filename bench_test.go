// Package repro_test is the root benchmark harness. It keeps what the
// repo benchmark (benchmark/, the BENCHMARK.json workloads) does not:
// the backend and decomposition sweeps that CI runs once under the race
// detector, the big-grid tier, and the ablations of the design choices
// in DESIGN.md §7, each reporting a counter (startups, wait, busy
// spread, steps to tolerance, simulated seconds, cache miss ratio) that
// the repo benchmark does not measure.
//
// Run everything:
//
//	go test -run XXX -bench . -benchmem
package repro_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/grid"
	"repro/internal/jet"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/shm"
	"repro/internal/solver"
	"repro/internal/stats"
	"repro/internal/study"
	"repro/internal/trace"
)

func benchGrid() *grid.Grid { return grid.MustNew(128, 64, 50, 5) }

// benchBackend measures composite steps through the solver-backend
// registry, the code path cmd/jetsim runs. Backend.Run is one-shot, so
// the timed region includes construction and the final gather.
func benchBackend(b *testing.B, name string, opts backend.Options) backend.Result {
	b.Helper()
	be, err := backend.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	res, err := be.Run(jet.Paper(), benchGrid(), opts, b.N)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(128*64*b.N)/b.Elapsed().Seconds()/1e6, "Mpoints/s")
	if res.Diag.HasNaN {
		b.Fatal("diverged")
	}
	return res
}

// benchRunner times steps composite steps of the parallel runner on the
// benchmark grid under ctl; construction stays outside the timer.
func benchRunner(b *testing.B, opts par.Options, steps int, ctl solver.Control) *par.Result {
	b.Helper()
	r, err := par.NewRunner(jet.Paper(), benchGrid(), opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	return r.RunControlled(steps, ctl)
}

// benchConverged runs a full tolerance-stopped run of the converging-jet
// scenario through the registry per iteration and reports the steps it
// took. These cases double as the race-instrumented CI smoke of the
// reduce + halo schedule.
func benchConverged(b *testing.B, name string, opts backend.Options) {
	b.Helper()
	be, err := backend.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	g := grid.MustNew(64, 26, 50, 5)
	steps := 0
	for i := 0; i < b.N; i++ {
		res, err := be.Run(study.ConvergedConfig(), g, opts, 400)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatalf("did not converge within 400 steps")
		}
		steps = res.Steps
	}
	b.ReportMetric(float64(steps), "steps-to-tol")
}

// benchCosim prices workload ch on platform p at procs processors
// (Version 5) and reports the simulated seconds.
func benchCosim(b *testing.B, p machine.Platform, ch trace.Characterization, procs int) {
	b.Helper()
	var sec float64
	for i := 0; i < b.N; i++ {
		o, err := p.Simulate(ch, procs, 5)
		if err != nil {
			b.Fatal(err)
		}
		sec = o.Seconds
	}
	b.ReportMetric(sec, fmt.Sprintf("sim-seconds@P%d", procs))
}

// reportCommWait attaches the communication profile of a parallel run:
// the slowest rank's receive-blocked time per step (the
// "non-overlapped communication time" the Version-6 restructuring
// exists to hide) and the startup count per step.
func reportCommWait(b *testing.B, res *par.Result) {
	b.Helper()
	maxWait := time.Duration(0)
	for _, rs := range res.Ranks {
		maxWait = max(maxWait, rs.Wait)
	}
	b.ReportMetric(float64(maxWait.Nanoseconds())/float64(res.Steps), "wait-ns/step")
	b.ReportMetric(float64(res.TotalComm().Startups)/float64(res.Steps), "startups/step")
}

// BenchmarkBackends sweeps every registered backend on the same
// workload at a representative parallel width.
func BenchmarkBackends(b *testing.B) {
	for _, name := range backend.Names() {
		opts := backend.Options{Procs: 4, Workers: 2, Policy: solver.Lagged}
		b.Run(name, func(b *testing.B) { benchBackend(b, name, opts) })
	}
}

// Benchmark2DShapes sweeps rank-grid shapes of the 2-D decomposition at
// a fixed rank count, axial-only through square: the halo-surface
// trade the mp2d backend exists to make (per-rank perimeter
// 2*(nx/px + nr/pr) shrinks toward the square shape, message count
// grows).
func Benchmark2DShapes(b *testing.B) {
	for _, sh := range [][2]int{{8, 1}, {4, 2}, {2, 4}} {
		b.Run(fmt.Sprintf("%dx%d", sh[0], sh[1]), func(b *testing.B) {
			benchBackend(b, "mp2d", backend.Options{Px: sh[0], Pr: sh[1], Policy: solver.Lagged})
		})
	}
}

// BenchmarkScenarioBackends runs the wall-bounded scenarios through the
// parallel backends whose halo schedules the wall edges reshape: the
// 2-D rank grid (wall ranks skip the mirror-owned edges) and the
// hybrid ranks-x-DOALL backend. Fresh policy, so each iteration is
// also a bitwise-parity workload. These double as the race-instrumented
// CI smoke of the wall-edge exchange schedule.
func BenchmarkScenarioBackends(b *testing.B) {
	for _, scen := range []string{"cavity", "channel"} {
		for _, c := range []struct {
			backend string
			opts    backend.Options
		}{
			{"mp2d", backend.Options{Px: 2, Pr: 2, Policy: solver.Fresh}},
			{"hybrid", backend.Options{Procs: 2, Workers: 2, Policy: solver.Fresh}},
		} {
			b.Run(scen+"/"+c.backend, func(b *testing.B) {
				sc, err := scenario.Get(scen)
				if err != nil {
					b.Fatal(err)
				}
				g, err := sc.Grid(128, 64)
				if err != nil {
					b.Fatal(err)
				}
				be, err := backend.Get(c.backend)
				if err != nil {
					b.Fatal(err)
				}
				opts := c.opts
				opts.Scenario = scen
				res, err := be.Run(sc.Config(jet.Paper()), g, opts, b.N)
				if err != nil {
					b.Fatal(err)
				}
				if res.Diag.HasNaN {
					b.Fatal("diverged")
				}
				b.ReportMetric(float64(128*64*b.N)/b.Elapsed().Seconds()/1e6, "Mpoints/s")
			})
		}
	}
}

// BenchmarkSolverStepLarge is the big-grid tier: composite steps on
// grids far past last-level cache (2000x1000 is ~0.5 GB of state,
// 4000x2000 four times that), where the fused cache-blocked kernels do
// the work the paper sized its Table 2 grids for. Construction and the
// first step (inflow memoization) run outside the timer, so the loop
// measures the steady state — expected 0 allocs/op. The shm case pins
// the best parallel backend on the same grid: the DOALL pool shares the
// arena, so it adds no message traffic.
func BenchmarkSolverStepLarge(b *testing.B) {
	steady := func(b *testing.B, points int, advance func()) {
		advance()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			advance()
		}
		b.ReportMetric(float64(points*b.N)/b.Elapsed().Seconds()/1e6, "Mpoints/s")
	}
	for _, sz := range [][2]int{{2000, 1000}, {4000, 2000}} {
		nx, nr := sz[0], sz[1]
		b.Run(fmt.Sprintf("serial-%dx%d", nx, nr), func(b *testing.B) {
			if testing.Short() {
				b.Skip("large grid")
			}
			s, err := solver.NewSerial(jet.Paper(), grid.MustNew(nx, nr, 50, 5))
			if err != nil {
				b.Fatal(err)
			}
			steady(b, nx*nr, s.Advance)
		})
	}
	b.Run("shm-2000x1000", func(b *testing.B) {
		if testing.Short() {
			b.Skip("large grid")
		}
		s, err := solver.NewSerial(jet.Paper(), grid.MustNew(2000, 1000, 50, 5))
		if err != nil {
			b.Fatal(err)
		}
		p := shm.NewPool(runtime.NumCPU())
		defer p.Close()
		s.Pool = p
		steady(b, 2000*1000, s.Advance)
	})
}

// BenchmarkAblationLaggedVsFresh compares the paper's message budget
// (Lagged) against the exact-halo policy on the real parallel solver.
func BenchmarkAblationLaggedVsFresh(b *testing.B) {
	for _, pol := range []struct {
		name string
		p    solver.HaloPolicy
	}{{"Lagged", solver.Lagged}, {"Fresh", solver.Fresh}} {
		b.Run(pol.name, func(b *testing.B) {
			res := benchRunner(b, par.Options{Px: 4, Pr: 1, Policy: pol.p}, b.N, solver.Control{})
			b.ReportMetric(float64(res.Ranks[1].Comm.Startups)/float64(b.N), "startups/step")
		})
	}
}

// BenchmarkAblationOverlap2D compares Version 5 against Version 6 on
// the real goroutine solver, on the axial (4x1) and the 2-D (2x2) rank
// grid. Version 5 serializes the exchange against the sweeps, Version 6
// runs each sweep's interior core while the column and row messages
// fly. Identical shape, identical message budget — the wait-ns/step
// metric isolates what the overlap hides.
func BenchmarkAblationOverlap2D(b *testing.B) {
	for _, sh := range [][2]int{{4, 1}, {2, 2}} {
		for _, v := range []par.Version{par.V5, par.V6} {
			b.Run(fmt.Sprintf("%dx%d/%s", sh[0], sh[1], v), func(b *testing.B) {
				opts := par.Options{Px: sh[0], Pr: sh[1], Version: v, Policy: solver.Lagged}
				reportCommWait(b, benchRunner(b, opts, b.N, solver.Control{}))
			})
		}
	}
}

// BenchmarkAblationBalance compares the decomposition cost models on
// the real solver — uniform point counts against the analytic flops
// profile and the warm-up-measured profile, on the axial and the 2-D
// decomposition — reporting throughput plus the per-rank busy-time
// spread (the Figure 13 metric each mode tries to minimize). The
// measured cases double as the race-instrumented CI smoke: the probe
// runs a full extra runner before the balanced one.
func BenchmarkAblationBalance(b *testing.B) {
	cases := []struct {
		backend, balance string
	}{
		{"mp:v5", "uniform"},
		{"mp:v5", "flops"},
		{"mp:v5", "measured"},
		{"mp2d", "measured"},
		{"hybrid", "measured"},
	}
	for _, c := range cases {
		b.Run(c.backend+"/"+c.balance, func(b *testing.B) {
			res := benchBackend(b, c.backend, backend.Options{Procs: 4, Workers: 2, Policy: solver.Lagged, Balance: c.balance})
			busy := make([]float64, len(res.PerRank))
			for i, r := range res.PerRank {
				busy[i] = r.Busy.Seconds()
			}
			b.ReportMetric(stats.RelSpread(busy), "busy-spread")
		})
	}
}

// BenchmarkAblationReduce is the reduction-cadence ablation: the same
// parallel run with the convergence monitor off and at cadences 1, 2,
// 5, and 10, reporting the collective's startups and the slowest rank's
// wait per step. The cosim cases price the same cadences on the shared
// Ethernet at 12 processors; the converged cases run to tolerance with
// the collective amortized (ReduceEvery > 1) on both decompositions.
func BenchmarkAblationReduce(b *testing.B) {
	// Each iteration marches a fixed 10 steps, so every cadence in the
	// sweep hits at least one monitored step even at -benchtime=1x.
	const stepsPerIter = 10
	for _, k := range []int{0, 1, 2, 5, 10} {
		b.Run(fmt.Sprintf("mp:v5/every%d", k), func(b *testing.B) {
			res := benchRunner(b, par.Options{Px: 4, Pr: 1, Policy: solver.Lagged}, stepsPerIter*b.N, solver.Control{ReduceEvery: k})
			reportCommWait(b, res)
			b.ReportMetric(float64(res.TotalDir().Reduce.Startups)/float64(res.Steps), "reduce-startups/step")
		})
	}
	for _, k := range []int{1, 10} {
		b.Run(fmt.Sprintf("cosim-ethernet/every%d", k), func(b *testing.B) {
			ch := trace.PaperNS()
			ch.ReduceEvery = k
			benchCosim(b, machine.LACE560Ethernet, ch, 12)
		})
	}
	b.Run("mp2d/converged", func(b *testing.B) {
		benchConverged(b, "mp2d", backend.Options{Px: 2, Pr: 2, StopTol: 9e-3, ReduceEvery: 2})
	})
	b.Run("hybrid/converged", func(b *testing.B) {
		benchConverged(b, "hybrid", backend.Options{Procs: 2, Workers: 2, StopTol: 9e-3, ReduceEvery: 2})
	})
}

// BenchmarkAblationHaloDepth is the communication-avoiding ablation:
// the same two-rank run under Wide(1), Wide(2), and Wide(4), reporting
// startups, stages booked as saved, and wait per step. The cosim cases
// price the same trade on the shared Ethernet at 8 processors with the
// Euler workload (the viscous 12-point shell prices Wide out on the
// paper grid; see DESIGN.md §5d). The converged cases run Wide(2) to
// tolerance on both decompositions; the reduce-group cases reduce four
// ranks every step, flat against 2-wide shared-memory nodes.
func BenchmarkAblationHaloDepth(b *testing.B) {
	for _, k := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("mp:v5/wide%d", k), func(b *testing.B) {
			res := benchRunner(b, par.Options{Px: 2, Pr: 1, Policy: solver.Wide(k)}, b.N, solver.Control{})
			reportCommWait(b, res)
			b.ReportMetric(float64(res.TotalDir().Total().SavedStartups)/float64(res.Steps), "saved-startups/step")
		})
	}
	for _, k := range []int{1, 2} {
		b.Run(fmt.Sprintf("cosim-ethernet/wide%d", k), func(b *testing.B) {
			ch := trace.PaperEuler()
			ch.HaloDepth = k
			benchCosim(b, machine.LACE560Ethernet, ch, 8)
		})
	}
	b.Run("mp2d/converged-wide", func(b *testing.B) {
		benchConverged(b, "mp2d", backend.Options{Px: 2, Pr: 1, Policy: solver.Wide(2), StopTol: 9e-3, ReduceEvery: 2})
	})
	b.Run("hybrid/converged-wide", func(b *testing.B) {
		benchConverged(b, "hybrid", backend.Options{Procs: 2, Workers: 2, Policy: solver.Wide(2), StopTol: 9e-3, ReduceEvery: 2})
	})
	for _, grp := range []int{1, 2} {
		b.Run(fmt.Sprintf("mp:v5/reduce-group%d", grp), func(b *testing.B) {
			res := benchRunner(b, par.Options{Px: 4, Pr: 1, Policy: solver.Lagged, ReduceGroup: grp}, b.N, solver.Control{ReduceEvery: 1})
			b.ReportMetric(float64(res.TotalDir().Reduce.Startups)/float64(res.Steps), "reduce-startups/step")
		})
	}
}

// BenchmarkAblationCacheGeometry sweeps the T3D node across data-cache
// geometries — the paper's central "proper cache design" lesson —
// reporting the Version 5 kernel's sustained MFLOPS and its miss ratio
// on the paper's 250x100 sweep.
func BenchmarkAblationCacheGeometry(b *testing.B) {
	f := trace.PaperFlopsPerPoint(true)
	v5 := kernels.V(5)
	geoms := []cache.Config{
		cache.T3D,
		{Name: "8KB-4way", SizeBytes: 8 << 10, LineBytes: 32, Ways: 4},
		{Name: "64KB-direct", SizeBytes: 64 << 10, LineBytes: 64, Ways: 1},
		{Name: "64KB-4way", SizeBytes: 64 << 10, LineBytes: 64, Ways: 4},
		{Name: "256KB-4way", SizeBytes: 256 << 10, LineBytes: 128, Ways: 4},
	}
	for _, g := range geoms {
		b.Run(g.Name, func(b *testing.B) {
			chip := cpu.AlphaT3D
			chip.DCache = g
			var mf, miss float64
			for i := 0; i < b.N; i++ {
				mf = chip.Evaluate(v5, f).EffMFLOPS
				miss = v5.SimulateSweep(g, 250, 100).MissRatio
			}
			b.ReportMetric(mf, "MFLOPS")
			b.ReportMetric(miss, "miss-ratio")
		})
	}
}

// serviceJobs is the throughput workload: a mixed Reynolds, excitation,
// grid, and scenario sweep with deliberate duplicates, the traffic
// shape the config-hash cache is built for.
func serviceJobs() []serve.Job {
	eps0 := 0.0
	unique := []serve.Job{
		{Scenario: "jet", Backend: "serial", Nx: 64, Nr: 24, Steps: 5},
		{Scenario: "jet", Backend: "serial", Nx: 64, Nr: 24, Steps: 5, Reynolds: 500},
		{Scenario: "jet", Backend: "serial", Nx: 64, Nr: 24, Steps: 5, Reynolds: 2000},
		{Scenario: "jet", Backend: "serial", Nx: 64, Nr: 24, Steps: 5, Eps: &eps0},
		{Scenario: "jet", Backend: "serial", Nx: 96, Nr: 32, Steps: 5},
		{Scenario: "jet", Backend: "shm", Procs: 2, Nx: 64, Nr: 24, Steps: 5},
		{Scenario: "jet", Backend: "mp:v5", Procs: 2, Fresh: true, Nx: 64, Nr: 24, Steps: 5},
		{Scenario: "jet", Backend: "mp2d", Px: 2, Pr: 2, Procs: 4, Fresh: true, Nx: 64, Nr: 24, Steps: 5},
		{Scenario: "jet", Backend: "serial", Euler: true, Nx: 64, Nr: 24, Steps: 5},
		{Scenario: "cavity", Backend: "serial", Nx: 33, Nr: 32, Steps: 5},
		{Scenario: "cavity", Backend: "mp:v5", Procs: 2, Fresh: true, Nx: 33, Nr: 32, Steps: 5},
		{Scenario: "channel", Backend: "serial", Nx: 64, Nr: 16, Steps: 5},
		{Scenario: "channel", Backend: "shm", Procs: 2, Nx: 64, Nr: 16, Steps: 5},
	}
	jobs := make([]serve.Job, 0, 2*len(unique)+4)
	jobs = append(jobs, unique...)
	jobs = append(jobs, unique...) // every job resubmitted once: cache traffic
	jobs = append(jobs, unique[:4]...)
	return jobs
}

// BenchmarkServiceThroughput measures served jobs per hour through the
// multi-tenant scheduler on the mixed duplicate-bearing workload; the
// hit-rate metric records how much of it the config-hash cache
// absorbed. A fresh scheduler per iteration keeps the hit-rate a
// property of the workload, not of accumulated benchmark state.
func BenchmarkServiceThroughput(b *testing.B) {
	jobs := serviceJobs()
	var served, hits uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := serve.New(serve.Options{})
		var wg sync.WaitGroup
		for _, job := range jobs {
			wg.Add(1)
			go func(job serve.Job) {
				defer wg.Done()
				if _, err := s.Submit(job.Config()); err != nil {
					b.Error(err)
				}
			}(job)
		}
		wg.Wait()
		st := s.Stats()
		served += st.Completed + st.CacheHits
		hits += st.CacheHits
		s.Close()
	}
	b.ReportMetric(float64(served)/b.Elapsed().Hours(), "runs/hour")
	b.ReportMetric(float64(hits)/float64(served), "hit-rate")
}
