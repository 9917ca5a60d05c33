// Command jetsim runs the excited axisymmetric jet of the paper on a
// named execution backend and prints diagnostics, optionally writing
// the axial momentum field (Figure 1's quantity) as PGM or ASCII
// contours.
//
// Examples:
//
//	jetsim -nx 125 -nr 50 -steps 500
//	jetsim -backend mp:v7 -procs 8 -steps 200
//	jetsim -backend shm -procs 4 -euler
//	jetsim -backend hybrid -procs 4 -workers 2 -fresh
//	jetsim -backend mp2d -procs 8 -steps 200       # auto near-square rank grid
//	jetsim -backend mp2d -px 4 -pr 2 -steps 200    # explicit 4x2 rank grid
//	jetsim -backend mp2d:v6 -procs 8 -steps 200    # overlapped 2-D exchanges
//	jetsim -backend hybrid:v6 -procs 4             # overlapped ranks x DOALL
//	jetsim -backend mp:v5 -procs 8 -balance flops  # cost-weighted decomposition
//	jetsim -backend mp2d -procs 8 -balance measured # warm-up-measured weights
//	jetsim -tol 1e-4 -steps 5000                   # stop when converged
//	jetsim -backend mp2d -procs 8 -tol 1e-4 -reduce-every 10  # amortized collective
//	jetsim -backend mp:v5 -procs 4 -halo-depth 2   # wide halos: exchange every 2nd step
//	jetsim -backend mp:v5 -procs 8 -tol 1e-4 -reduce-group 4  # hierarchical allreduce
//	jetsim -scenario cavity -nx 49 -nr 48 -steps 2000  # lid-driven cavity
//	jetsim -scenario cavity -steady-tol 1e-6 -steps 5000  # stop on velocity steadiness
//	jetsim -scenario channel -backend mp2d -procs 4    # wall-bounded pipe flow
//	jetsim -contour -pgm out/jet.pgm
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/backend"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/vis"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("jetsim: ")
	// The flags bind straight into the run description: core.Config is
	// the only spelling of a run, and Config.Canonical (inside NewRun)
	// the only place it is folded and judged — a serial run is one slab
	// whatever -procs says, and a contradiction like "-fresh
	// -halo-depth 2" is rejected instead of ignored. The -backend name
	// alone selects the communication strategy (mp2d:v6, hybrid:v7).
	var cfg core.Config
	flag.IntVar(&cfg.Nx, "nx", 125, "axial grid nodes")
	flag.IntVar(&cfg.Nr, "nr", 50, "radial grid nodes")
	flag.IntVar(&cfg.Steps, "steps", 500, "composite time steps")
	flag.BoolVar(&cfg.Euler, "euler", false, "solve the Euler equations instead of Navier-Stokes")
	flag.StringVar(&cfg.Backend, "backend", "serial", "execution backend, which also names the communication strategy: "+strings.Join(backend.Names(), ", "))
	flag.StringVar(&cfg.Scenario, "scenario", "", "flow scenario: "+strings.Join(scenario.Names(), ", ")+" (empty = jet; cavity/channel pin their own physics, so -euler applies to the jet only)")
	flag.IntVar(&cfg.Procs, "procs", 4, "ranks (mp, mp2d, hybrid) or workers (shm)")
	flag.IntVar(&cfg.Workers, "workers", 0, "per-rank DOALL workers (hybrid; 0 = host default)")
	flag.IntVar(&cfg.Px, "px", 0, "axial rank-grid width (mp2d; 0 = auto near-square)")
	flag.IntVar(&cfg.Pr, "pr", 0, "radial rank-grid height (mp2d; 0 = auto near-square)")
	flag.StringVar(&cfg.Balance, "balance", "", "decomposition cost model: uniform, flops, or measured (distributed backends; empty = uniform)")
	flag.Float64Var(&cfg.StopTol, "tol", 0, "stop tolerance on the global L2 residual (0 = march -steps fixed)")
	flag.IntVar(&cfg.ReduceEvery, "reduce-every", 0, "residual-reduction cadence in steps (0 = every step when -tol is set)")
	flag.BoolVar(&cfg.FreshHalos, "fresh", false, "exact halo policy (bitwise serial equivalence)")
	flag.IntVar(&cfg.HaloDepth, "halo-depth", 0, "communication-avoiding halo depth k: exchange every k-th step over a redundant ghost shell, bitwise-identical to serial (distributed backends; 0 = per-stage policy, 1 = fresh)")
	flag.IntVar(&cfg.ReduceGroup, "reduce-group", 0, "hierarchical allreduce node size: intra-node combine, leaders-only cross-node plan (distributed backends; 0 or 1 = flat)")
	flag.Float64Var(&cfg.SteadyTol, "steady-tol", 0, "stop tolerance on velocity steadiness max(|du|,|dv|)/dt — the closed-flow criterion (e.g. cavity); mutually exclusive with -tol (0 = march -steps fixed)")
	contour := flag.Bool("contour", false, "print an ASCII contour of axial momentum")
	pgm := flag.String("pgm", "", "write axial momentum as a PGM image to this path")
	flag.Parse()

	if err := cliutil.CheckExplicit(flag.CommandLine); err != nil {
		log.Fatal(err)
	}
	explicitProcs := false
	flag.Visit(func(f *flag.Flag) { explicitProcs = explicitProcs || f.Name == "procs" })
	if cfg.Px > 0 && cfg.Pr > 0 && !explicitProcs {
		// An explicit rank-grid shape defines the width; only an
		// explicitly contradicting -procs should error downstream.
		cfg.Procs = 0
	}

	run, err := core.NewRun(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer run.Close()
	res, err := run.Execute()
	if err != nil {
		log.Fatal(err)
	}

	shape := ""
	if res.Px > 0 {
		shape = fmt.Sprintf(" ranks=%dx%d", res.Px, res.Pr)
	}
	fmt.Printf("scenario=%s backend=%s procs=%d%s grid=%dx%d steps=%d dt=%.4g elapsed=%s\n",
		res.Scenario, res.Backend, res.Procs, shape, cfg.Nx, cfg.Nr, res.Steps, res.Dt, res.Elapsed.Round(1e6))
	d := res.Diag
	fmt.Printf("mass=%.6f energy=%.6f max|v|=%.4g minRho=%.4g minP=%.4g\n",
		d.Mass, d.Energy, d.MaxV, d.MinRho, d.MinP)
	if n := len(res.Residuals); n > 0 {
		last := res.Residuals[n-1]
		crit, lim := "residual", cfg.StopTol
		if cfg.SteadyTol > 0 {
			crit, lim = "steadiness", cfg.SteadyTol
		}
		if res.Converged {
			fmt.Printf("converged at step %d: %s %.4g <= tol %.4g\n", res.Steps, crit, last.Residual, lim)
		} else {
			every := cfg.ReduceEvery
			if every == 0 {
				every = 1 // the controller's default when only a tolerance is set
			}
			fmt.Printf("%s %.4g after %d steps (monitored every %d)\n", crit, last.Residual, res.Steps, every)
		}
	}
	if res.Comm.Startups > 0 {
		fmt.Printf("comm: %d startups, %.2f MB sent\n", res.Comm.Startups, float64(res.Comm.Bytes)/1e6)
		if saved := res.CommDir.Total().SavedStartups; saved > 0 {
			red := 0.0
			for _, rs := range res.PerRank {
				red += rs.RedundantFlops
			}
			fmt.Printf("  wide:   %8d startups saved for %.3g redundant flops\n", saved, red)
		}
		if dir := res.CommDir; dir.Radial.Startups > 0 || dir.Reduce.Startups > 0 {
			fmt.Printf("  axial:  %8d startups %8.2f MB\n", dir.Axial.Startups, float64(dir.Axial.Bytes)/1e6)
			fmt.Printf("  radial: %8d startups %8.2f MB\n", dir.Radial.Startups, float64(dir.Radial.Bytes)/1e6)
			fmt.Printf("  reduce: %8d startups %8.2f MB\n", dir.Reduce.Startups, float64(dir.Reduce.Bytes)/1e6)
		}
		for _, rs := range res.PerRank {
			fmt.Printf("  rank %2d: busy=%-10s wait=%-10s %8d startups %8.2f MB %12.3g flops\n",
				rs.Rank, rs.Busy.Round(1e6), rs.Wait.Round(1e6), rs.Comm.Startups, float64(rs.Comm.Bytes)/1e6, rs.Flops)
		}
	}
	if *contour {
		vis.ASCIIContour(os.Stdout, "axial momentum rho*u", res.Momentum, 100, 24)
	}
	if *pgm != "" {
		f, err := os.Create(*pgm)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := vis.WritePGM(f, res.Momentum); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *pgm)
	}
}
