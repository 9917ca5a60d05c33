// Package repro_test is the benchmark harness of the reproduction: one
// benchmark per table and figure of the paper's evaluation (regenerating
// the corresponding experiment and reporting its headline metric), the
// solver and substrate kernel benchmarks, and the ablation benchmarks
// for the design choices called out in DESIGN.md §7.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Figure benchmarks report simulated platform seconds via ReportMetric;
// kernel benchmarks report real host throughput.
package repro_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/decomp"
	"repro/internal/field"
	"repro/internal/flux"
	"repro/internal/grid"
	"repro/internal/jet"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/par"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/shm"
	"repro/internal/solver"
	"repro/internal/stats"
	"repro/internal/study"
	"repro/internal/trace"
)

// ---------------------------------------------------------------------
// Tables.

// BenchmarkTable1 regenerates Table 1 (application characteristics) from
// a real instrumented parallel run.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := study.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(rows[0].StartupsPerProc), "NS-startups/proc")
			b.ReportMetric(rows[0].VolumePerProcMB, "NS-MB/proc")
		}
	}
}

// BenchmarkTable2 regenerates Table 2 (computation-communication ratios).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := study.Table2Report()
		if len(t.Rows) != 5 {
			b.Fatal("table 2 shape")
		}
	}
	ns := trace.PaperNS()
	b.ReportMetric(ns.TotalFlops()/8/float64(ns.RankBytes()), "NS-FPs/byte@P8")
}

// ---------------------------------------------------------------------
// Figures.

// BenchmarkFig1 runs the excited-jet flow field (reduced grid).
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := study.Fig1(64, 32, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2 regenerates the single-processor version study.
func BenchmarkFig2(b *testing.B) {
	var last []float64
	for i := 0; i < b.N; i++ {
		ss := study.Fig2()
		last = ss[0].Y
	}
	b.ReportMetric(last[0], "NS-V1-seconds")
	b.ReportMetric(last[4], "NS-V5-seconds")
}

// figBench wraps a figure driver returning series.
func figBench(b *testing.B, f func() error) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := f(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3LACENavierStokes(b *testing.B) {
	figBench(b, func() error { _, err := study.FigLACE(true); return err })
}

func BenchmarkFig4LACEEuler(b *testing.B) {
	figBench(b, func() error { _, err := study.FigLACE(false); return err })
}

func BenchmarkFig5ComponentsNavierStokes(b *testing.B) {
	figBench(b, func() error { _, err := study.FigLACEComponents(true); return err })
}

func BenchmarkFig6ComponentsEuler(b *testing.B) {
	figBench(b, func() error { _, err := study.FigLACEComponents(false); return err })
}

func BenchmarkFig7CommVersionsNavierStokes(b *testing.B) {
	figBench(b, func() error { _, err := study.FigCommVersions(true); return err })
}

func BenchmarkFig8CommVersionsEuler(b *testing.B) {
	figBench(b, func() error { _, err := study.FigCommVersions(false); return err })
}

func BenchmarkFig9PlatformsNavierStokes(b *testing.B) {
	var ss []float64
	for i := 0; i < b.N; i++ {
		series, err := study.FigPlatforms(true)
		if err != nil {
			b.Fatal(err)
		}
		if y, ok := series[0].YAt(8); ok {
			ss = append(ss[:0], y)
		}
	}
	if len(ss) > 0 {
		b.ReportMetric(ss[0], "YMP@8-seconds")
	}
}

func BenchmarkFig10PlatformsEuler(b *testing.B) {
	figBench(b, func() error { _, err := study.FigPlatforms(false); return err })
}

func BenchmarkFig11LibrariesNavierStokes(b *testing.B) {
	figBench(b, func() error { _, err := study.FigLibraries(true); return err })
}

func BenchmarkFig12LibrariesEuler(b *testing.B) {
	figBench(b, func() error { _, err := study.FigLibraries(false); return err })
}

func BenchmarkFig13LoadBalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := study.Fig13(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Solver kernels (real host performance).

func benchGrid() *grid.Grid { return grid.MustNew(128, 64, 50, 5) }

// BenchmarkSolverStepSerial measures one composite time step of the
// Navier-Stokes solver; the per-op metric is grid points per step.
func BenchmarkSolverStepSerial(b *testing.B) {
	s, err := solver.NewSerial(jet.Paper(), benchGrid())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Advance()
	}
	b.ReportMetric(float64(128*64*b.N)/b.Elapsed().Seconds()/1e6, "Mpoints/s")
}

func BenchmarkSolverStepSerialEuler(b *testing.B) {
	s, err := solver.NewSerial(jet.Euler(), benchGrid())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Advance()
	}
}

// benchBackend measures composite steps through the solver-backend
// registry: the backend is resolved by name, exactly as cmd/jetsim
// does, so the harness covers the same code path users run. Because
// Backend.Run is one-shot, the timed region includes solver
// construction and the final state gather — amortized at real
// benchtimes, dominant at -benchtime=1x. Compare against the
// construction-free BenchmarkSolverStepSerial accordingly.
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

// BenchmarkBackends sweeps every registered backend on the same
// workload at a representative parallel width.
func BenchmarkBackends(b *testing.B) {
	for _, name := range backend.Names() {
		opts := backend.Options{Procs: 4, Workers: 2, Policy: solver.Lagged}
		b.Run(name, func(b *testing.B) { benchBackend(b, name, opts) })
	}
}

// scenarioSolver builds the serial solver of a registered scenario on
// the benchmark grid, exactly as the backend layer would.
func scenarioSolver(b *testing.B, name string) *solver.Serial {
	b.Helper()
	sc, err := scenario.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sc.Config(jet.Paper())
	g, err := sc.Grid(128, 64)
	if err != nil {
		b.Fatal(err)
	}
	prob, err := sc.Problem(cfg, g)
	if err != nil {
		b.Fatal(err)
	}
	s, err := solver.NewSerialProblem(cfg, prob, g)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkSolverStep sweeps every registered scenario on the serial
// solver, one composite step per iteration, construction and inflow
// memoization outside the timer. The per-scenario Mpoints/s rows let
// bench_compare.sh gate the wall-mirror and inflow-hook paths the same
// way BenchmarkSolverStepSerial gates the jet kernels; 0 allocs/op is
// part of the contract (ReportAllocs).
func BenchmarkSolverStep(b *testing.B) {
	for _, name := range scenario.Names() {
		b.Run(name, func(b *testing.B) {
			s := scenarioSolver(b, name)
			s.Advance()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Advance()
			}
			b.ReportMetric(float64(128*64*b.N)/b.Elapsed().Seconds()/1e6, "Mpoints/s")
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
				cfg := sc.Config(jet.Paper())
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
				res, err := be.Run(cfg, g, opts, b.N)
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

func BenchmarkSolverStepParallel2(b *testing.B) {
	benchBackend(b, "mp:v5", backend.Options{Procs: 2})
}
func BenchmarkSolverStepParallel8(b *testing.B) {
	benchBackend(b, "mp:v5", backend.Options{Procs: 8})
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
	sizes := [][2]int{{2000, 1000}, {4000, 2000}}
	for _, sz := range sizes {
		nx, nr := sz[0], sz[1]
		b.Run(fmt.Sprintf("serial-%dx%d", nx, nr), func(b *testing.B) {
			if testing.Short() {
				b.Skip("large grid")
			}
			s, err := solver.NewSerial(jet.Paper(), grid.MustNew(nx, nr, 50, 5))
			if err != nil {
				b.Fatal(err)
			}
			s.Advance()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Advance()
			}
			b.ReportMetric(float64(nx*nr*b.N)/b.Elapsed().Seconds()/1e6, "Mpoints/s")
		})
	}
	b.Run("shm-2000x1000", func(b *testing.B) {
		if testing.Short() {
			b.Skip("large grid")
		}
		s, err := shm.NewSolver(jet.Paper(), grid.MustNew(2000, 1000, 50, 5), runtime.NumCPU())
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		s.Advance()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Advance()
		}
		b.ReportMetric(float64(2000*1000*b.N)/b.Elapsed().Seconds()/1e6, "Mpoints/s")
	})
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

// BenchmarkFluxKernel measures the axial flux evaluation alone.
func BenchmarkFluxKernel(b *testing.B) {
	gm := jet.Paper().Gas()
	nx, nr := 128, 64
	q := flux.NewState(nx, nr)
	w := flux.NewState(nx, nr)
	s := flux.NewStress(nx, nr)
	f := flux.NewState(nx, nr)
	for k := range q {
		q[k].FillAll(1)
	}
	flux.Primitives(gm, q, w, 0, nx)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flux.FluxX(gm, q, w, s, f, 0, nx, true)
	}
	b.SetBytes(int64(nx * nr * 8 * flux.NVar))
}

// BenchmarkStressKernel measures the viscous stress tensor evaluation.
func BenchmarkStressKernel(b *testing.B) {
	gm := jet.Paper().Gas()
	g := benchGrid()
	q := flux.NewState(g.Nx, g.Nr)
	w := flux.NewState(g.Nx, g.Nr)
	s := flux.NewStress(g.Nx, g.Nr)
	for k := range q {
		q[k].FillAll(1)
	}
	flux.Primitives(gm, q, w, 0, g.Nx)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flux.ComputeStress(gm, g.Dx, g.Dr, g.R, w, s, 0, g.Nx)
	}
}

// BenchmarkHaloExchange measures one grouped neighbour exchange through
// the message layer (pack, send, receive, unpack on both sides).
func BenchmarkHaloExchange(b *testing.B) {
	w := msg.NewWorld(2)
	a, c := w.Comm(0), w.Comm(1)
	fa := field.New(32, 100)
	fb := field.New(32, 100)
	buf := make([]float64, 2*100)
	// Prime the world's payload free list so the measured loop exercises
	// the steady state (the first send allocates the recycled payload).
	a.Send(1, 0, buf)
	c.Recv(0, 0, buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fa.PackCols(30, 2, buf)
		a.Send(1, 0, buf)
		c.Recv(0, 0, buf)
		fb.UnpackCols(-2, 2, buf)
	}
	b.SetBytes(int64(len(buf) * 8))
}

// ---------------------------------------------------------------------
// Substrate kernels.

func BenchmarkCacheSimSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		kernels.V(5).SimulateSweep(cache.RS560, 250, 100)
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	c := cache.New(cache.RS560)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i*8) % (1 << 22))
	}
}

func BenchmarkEventEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := machine.NewEngine()
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < 1000 {
				e.Schedule(1, tick)
			}
		}
		e.Schedule(0, tick)
		e.Run()
	}
	b.ReportMetric(1000, "events/op")
}

func BenchmarkPlatformCosim(b *testing.B) {
	ch := trace.PaperNS()
	for i := 0; i < b.N; i++ {
		if _, err := machine.LACE560AllnodeS.Simulate(ch, 16, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Ablation benchmarks (DESIGN.md §7): each reports the simulated or
// measured effect of one design choice.

// BenchmarkAblationLaggedVsFresh compares the paper's message budget
// (Lagged) against the exact-halo policy on the real parallel solver.
func BenchmarkAblationLaggedVsFresh(b *testing.B) {
	for _, pol := range []struct {
		name string
		p    solver.HaloPolicy
	}{{"Lagged", solver.Lagged}, {"Fresh", solver.Fresh}} {
		b.Run(pol.name, func(b *testing.B) {
			r, err := par.NewRunner(jet.Paper(), benchGrid(), par.Options{Px: 4, Pr: 1, Policy: pol.p})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			res := r.Run(b.N)
			b.ReportMetric(float64(res.Ranks[1].Comm.Startups)/float64(b.N), "startups/step")
		})
	}
}

// BenchmarkAblationGroupedVsSplit compares Version 5 (grouped) against
// Version 7 (de-burst) on the shared Ethernet and the ALLNODE switch.
func BenchmarkAblationGroupedVsSplit(b *testing.B) {
	ch := trace.PaperNS()
	cases := []struct {
		name string
		p    machine.Platform
		v    int
	}{
		{"Ethernet/V5", machine.LACE560Ethernet, 5},
		{"Ethernet/V7", machine.LACE560Ethernet, 7},
		{"ALLNODE-S/V5", machine.LACE560AllnodeS, 5},
		{"ALLNODE-S/V7", machine.LACE560AllnodeS, 7},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var sec float64
			for i := 0; i < b.N; i++ {
				o, err := c.p.Simulate(ch, 12, c.v)
				if err != nil {
					b.Fatal(err)
				}
				sec = o.Seconds
			}
			b.ReportMetric(sec, "sim-seconds@P12")
		})
	}
}

// reportCommWait attaches the communication profile of a parallel run:
// the slowest rank's receive-blocked time per step (the
// "non-overlapped communication time" the Version-6 restructuring
// exists to hide) and the startup count per step.
func reportCommWait(b *testing.B, res *par.Result) {
	b.Helper()
	maxWait := time.Duration(0)
	for _, rs := range res.Ranks {
		if rs.Wait > maxWait {
			maxWait = rs.Wait
		}
	}
	b.ReportMetric(float64(maxWait.Nanoseconds())/float64(res.Steps), "wait-ns/step")
	b.ReportMetric(float64(res.TotalComm().Startups)/float64(res.Steps), "startups/step")
}

// BenchmarkAblationOverlap compares Version 5 against Version 6 on the
// real goroutine solver (the overlap restructuring is real code),
// reporting each variant's per-rank wait so the baseline records the
// overlapped vs non-overlapped communication cost of the axial
// decomposition.
func BenchmarkAblationOverlap(b *testing.B) {
	for _, v := range []par.Version{par.V5, par.V6} {
		b.Run(v.String(), func(b *testing.B) {
			r, err := par.NewRunner(jet.Paper(), benchGrid(), par.Options{Px: 4, Pr: 1, Version: v, Policy: solver.Lagged})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			res := r.Run(b.N)
			reportCommWait(b, res)
		})
	}
}

// BenchmarkAblationOverlap2D is the same ablation on the 2-D rank
// grid: Version 5 serializes the four-neighbour exchange against the
// sweeps, Version 6 runs each sweep's interior core while the column
// and row messages fly. Identical shape, identical message budget —
// the wait-ns/step metric isolates what the overlap hides.
func BenchmarkAblationOverlap2D(b *testing.B) {
	for _, v := range []par.Version{par.V5, par.V6} {
		b.Run(v.String(), func(b *testing.B) {
			r, err := par.NewRunner(jet.Paper(), benchGrid(), par.Options{Px: 2, Pr: 2, Version: v, Policy: solver.Lagged})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			res := r.Run(b.N)
			reportCommWait(b, res)
		})
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
// 5, and 10, reporting the collective's startup budget per step and
// the slowest rank's receive-blocked time — the cost the amortized
// cadence exists to shrink (reduce global collectives, the dominant
// scaling term). The cosim cases price the same cadences on the shared
// Ethernet at 12 processors, where log2(P) serialized small-message
// rounds hurt most.
func BenchmarkAblationReduce(b *testing.B) {
	// Each iteration marches a fixed 10 steps, so every cadence in the
	// sweep hits at least one monitored step even at -benchtime=1x and
	// the committed baseline tracks the amortized collective cost.
	const stepsPerIter = 10
	for _, k := range []int{0, 1, 2, 5, 10} {
		b.Run(fmt.Sprintf("mp:v5/every%d", k), func(b *testing.B) {
			r, err := par.NewRunner(jet.Paper(), benchGrid(), par.Options{Px: 4, Pr: 1, Policy: solver.Lagged})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			res := r.RunControlled(stepsPerIter*b.N, solver.Control{ReduceEvery: k})
			reportCommWait(b, res)
			b.ReportMetric(float64(res.TotalDir().Reduce.Startups)/float64(res.Steps), "reduce-startups/step")
		})
	}
	ch := trace.PaperNS()
	for _, k := range []int{1, 10} {
		b.Run(fmt.Sprintf("cosim-ethernet/every%d", k), func(b *testing.B) {
			chk := ch
			chk.ReduceEvery = k
			var sec float64
			for i := 0; i < b.N; i++ {
				o, err := machine.LACE560Ethernet.Simulate(chk, 12, 5)
				if err != nil {
					b.Fatal(err)
				}
				sec = o.Seconds
			}
			b.ReportMetric(sec, "sim-seconds@P12")
		})
	}
	// Converged runs through the registry: a full tolerance-stopped run
	// per iteration on the converging-jet scenario, with the collective
	// amortized (ReduceEvery > 1). These double as the race-instrumented
	// CI smoke of the reduce + halo schedule on both decompositions.
	convCfg := study.ConvergedConfig()
	for _, c := range []struct {
		name string
		opts backend.Options
	}{
		{"mp2d", backend.Options{Px: 2, Pr: 2, StopTol: 9e-3, ReduceEvery: 2}},
		{"hybrid", backend.Options{Procs: 2, Workers: 2, StopTol: 9e-3, ReduceEvery: 2}},
	} {
		b.Run(c.name+"/converged", func(b *testing.B) {
			be, err := backend.Get(c.name)
			if err != nil {
				b.Fatal(err)
			}
			g := grid.MustNew(64, 26, 50, 5)
			steps := 0
			for i := 0; i < b.N; i++ {
				res, err := be.Run(convCfg, g, c.opts, 400)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Converged {
					b.Fatalf("did not converge within 400 steps")
				}
				steps = res.Steps
			}
			b.ReportMetric(float64(steps), "steps-to-tol")
		})
	}
}

// BenchmarkAblationHaloDepth is the communication-avoiding ablation:
// the same two-rank run under Wide(1) (per-stage fresh exchange),
// Wide(2), and Wide(4), reporting the startup budget per step, the
// stages booked as saved, and the slowest rank's receive-blocked time.
// The cosim cases price the identical cadence trade on the shared
// Ethernet at 8 processors with the Euler workload (the exact 4-point
// inviscid shell — the viscous 12-point shell prices Wide out on the
// paper grid, which is itself a finding; see DESIGN.md §5d). The
// converged cases run a full tolerance-stopped Wide(2) run through the
// registry on both decompositions and double as the race-instrumented
// CI smoke of the refresh + exchange + collective interleaving.
func BenchmarkAblationHaloDepth(b *testing.B) {
	for _, k := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("mp:v5/wide%d", k), func(b *testing.B) {
			r, err := par.NewRunner(jet.Paper(), benchGrid(), par.Options{Px: 2, Pr: 1, Policy: solver.Wide(k)})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			res := r.Run(b.N)
			reportCommWait(b, res)
			b.ReportMetric(float64(res.TotalDir().Total().SavedStartups)/float64(res.Steps), "saved-startups/step")
		})
	}
	ch := trace.PaperEuler()
	for _, k := range []int{1, 2} {
		b.Run(fmt.Sprintf("cosim-ethernet/wide%d", k), func(b *testing.B) {
			chk := ch
			chk.HaloDepth = k
			var sec float64
			for i := 0; i < b.N; i++ {
				o, err := machine.LACE560Ethernet.Simulate(chk, 8, 5)
				if err != nil {
					b.Fatal(err)
				}
				sec = o.Seconds
			}
			b.ReportMetric(sec, "sim-seconds@P8")
		})
	}
	// Converged Wide(2) runs through the registry. The viscous shell is
	// 12 points deep, so the 26-row grid keeps the rank grid one block
	// tall and the hybrid slabs 32 columns wide.
	convCfg := study.ConvergedConfig()
	for _, c := range []struct {
		name string
		opts backend.Options
	}{
		{"mp2d", backend.Options{Px: 2, Pr: 1, Policy: solver.Wide(2), StopTol: 9e-3, ReduceEvery: 2}},
		{"hybrid", backend.Options{Procs: 2, Workers: 2, Policy: solver.Wide(2), StopTol: 9e-3, ReduceEvery: 2}},
	} {
		b.Run(c.name+"/converged-wide", func(b *testing.B) {
			be, err := backend.Get(c.name)
			if err != nil {
				b.Fatal(err)
			}
			g := grid.MustNew(64, 26, 50, 5)
			steps := 0
			for i := 0; i < b.N; i++ {
				res, err := be.Run(convCfg, g, c.opts, 400)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Converged {
					b.Fatalf("did not converge within 400 steps")
				}
				steps = res.Steps
			}
			b.ReportMetric(float64(steps), "steps-to-tol")
		})
	}
	// The hierarchical collective on the real runner: four ranks reduced
	// every step, flat against 2-wide shared-memory nodes — the member
	// ranks' message traffic drops to zero.
	for _, grp := range []int{1, 2} {
		b.Run(fmt.Sprintf("mp:v5/reduce-group%d", grp), func(b *testing.B) {
			r, err := par.NewRunner(jet.Paper(), benchGrid(), par.Options{Px: 4, Pr: 1, Policy: solver.Lagged, ReduceGroup: grp})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			res := r.RunControlled(b.N, solver.Control{ReduceEvery: 1})
			b.ReportMetric(float64(res.TotalDir().Reduce.Startups)/float64(res.Steps), "reduce-startups/step")
		})
	}
}

// BenchmarkAblationCacheGeometry sweeps the T3D node across cache
// geometries — the paper's central "proper cache design" lesson.
func BenchmarkAblationCacheGeometry(b *testing.B) {
	f := trace.PaperFlopsPerPoint(true)
	geoms := []cache.Config{
		cache.T3D,
		{Name: "64KB-4way", SizeBytes: 64 << 10, LineBytes: 64, Ways: 4},
		{Name: "256KB-4way", SizeBytes: 256 << 10, LineBytes: 128, Ways: 4},
	}
	for _, g := range geoms {
		b.Run(g.Name, func(b *testing.B) {
			chip := cpu.AlphaT3D
			chip.DCache = g
			var mf float64
			for i := 0; i < b.N; i++ {
				mf = chip.Evaluate(kernels.V(5), f).EffMFLOPS
			}
			b.ReportMetric(mf, "MFLOPS")
		})
	}
}

// BenchmarkAblationEagerVsRendezvous compares the two library semantics
// on the same switch hardware.
func BenchmarkAblationEagerVsRendezvous(b *testing.B) {
	ch := trace.PaperNS()
	for _, p := range []machine.Platform{machine.SPMPL, machine.SPPVMe} {
		b.Run(p.Lib.Name, func(b *testing.B) {
			var sec float64
			for i := 0; i < b.N; i++ {
				o, err := p.Simulate(ch, 8, 5)
				if err != nil {
					b.Fatal(err)
				}
				sec = o.Seconds
			}
			b.ReportMetric(sec, "sim-seconds@P8")
		})
	}
}

// BenchmarkAblationDecomposition sweeps rank counts, reporting the real
// measured speedup of the axial decomposition on the host.
func BenchmarkAblationDecomposition(b *testing.B) {
	for _, procs := range []int{1, 2, 4, 8} {
		b.Run(decompName(procs), func(b *testing.B) {
			r, err := par.NewRunner(jet.Paper(), benchGrid(), par.Options{Px: procs, Pr: 1, Policy: solver.Lagged})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			r.Run(b.N)
		})
	}
}

func decompName(p int) string {
	d, _ := decomp.Axial(128, p)
	w := d.Widths()
	return fmt.Sprintf("%dranks-%dcols", p, w[0])
}

// ---------------------------------------------------------------------
// End-to-end: the public API.

func BenchmarkCoreQuickstart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run, err := core.NewRun(core.Config{Nx: 64, Nr: 24, Steps: 5})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := run.Execute(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Service throughput: the multi-tenant scheduler.

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
