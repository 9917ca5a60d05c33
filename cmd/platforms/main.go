// Command platforms co-simulates the paper's platforms on the
// application workload and prints execution-time curves. With -backend
// it additionally measures the real workload on this host through the
// solver-backend table, appending the measured curve to the
// simulated ones — the paper's same-computation-everywhere premise made
// literal.
//
// Examples:
//
//	platforms                      # all platforms, Navier-Stokes
//	platforms -euler -version 7    # Euler with de-burst messages
//	platforms -platform "Cray T3D" -procs 16
//	platforms -backend hybrid      # add a measured host curve
//	platforms -backend mp2d        # measured 2-D rank-grid curve
//	platforms -backend mp2d:v6     # measured overlapped rank-grid curve
//	platforms -backend hybrid:v6 -version 6  # overlap simulated and measured
//	platforms -backend mp:v5 -balance flops # cost-weighted host decomposition
//	platforms -reduce-every 10              # cost the convergence collective
//	platforms -backend mp2d -tol 1e-4 -reduce-every 10  # converged host run
//	platforms -halo-depth 2                 # price the communication-avoiding cadence
//	platforms -reduce-every 10 -reduce-group 4  # price the hierarchical collective
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
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/study"
	"repro/internal/trace"
)

func allPlatforms() []machine.Platform {
	return []machine.Platform{
		machine.LACE560Ethernet, machine.LACE560FDDI, machine.LACE560AllnodeS,
		machine.LACE590AllnodeF, machine.LACE590ATM,
		machine.SPMPL, machine.SPPVMe, machine.T3D, machine.YMP,
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("platforms: ")
	// The flags that describe the measured host run bind straight into
	// its core.Config (the co-simulation reads the same fields below);
	// -procs stays outside it — it selects one point of the sweep.
	var host core.Config
	flag.BoolVar(&host.Euler, "euler", false, "Euler workload instead of Navier-Stokes")
	simVersion := flag.Int("version", 5, "communication strategy of the co-simulated platforms: 5, 6, or 7 (the measured host run takes its strategy from the -backend name)")
	name := flag.String("platform", "", "run a single platform by name")
	procs := flag.Int("procs", 0, "run a single processor count (0 = sweep)")
	chart := flag.Bool("chart", true, "draw log-scale ASCII chart")
	flag.StringVar(&host.Backend, "backend", "", "also measure a real host run on this backend (its name picks the communication strategy): "+strings.Join(backend.Names(), ", "))
	flag.StringVar(&host.Scenario, "scenario", "", "flow scenario of the measured host run: "+strings.Join(scenario.Names(), ", ")+" (empty = jet; the co-simulation always replays the paper's jet traces)")
	flag.StringVar(&host.Balance, "balance", "", "decomposition cost model of the measured host run: uniform, flops, or measured")
	flag.Float64Var(&host.StopTol, "tol", 0, "stop tolerance of the measured host run (0 = fixed -steps)")
	flag.IntVar(&host.ReduceEvery, "reduce-every", 0, "global-reduction cadence in steps: costs the collective on the co-simulated platforms and monitors the measured host run")
	flag.BoolVar(&host.FreshHalos, "fresh", false, "exact per-stage halo policy for the measured host run (bitwise serial equivalence); contradicts -halo-depth k > 1")
	flag.IntVar(&host.HaloDepth, "halo-depth", 0, "communication-avoiding halo depth k: the co-simulated ranks exchange every k-th step over a redundant shell, and the measured host run uses the Wide(k) policy (0 = per-stage exchange)")
	flag.IntVar(&host.ReduceGroup, "reduce-group", 0, "hierarchical allreduce node size: leaders-only cross-node plan on the co-simulated platforms and the measured host run (0 or 1 = flat)")
	flag.IntVar(&host.Nx, "nx", 125, "grid for the measured host run (with -backend)")
	flag.IntVar(&host.Nr, "nr", 50, "grid for the measured host run (with -backend)")
	flag.IntVar(&host.Steps, "steps", 100, "composite steps for the measured host run (with -backend)")
	flag.Parse()

	if err := cliutil.CheckExplicit(flag.CommandLine); err != nil {
		log.Fatal(err)
	}

	ch := trace.PaperNS()
	if host.Euler {
		ch = trace.PaperEuler()
	}
	// The co-simulated platforms pay for the reduction cadence (the
	// collective-latency term of a convergence-controlled run); the
	// tolerance itself only applies to the measured host run, since the
	// co-simulation replays a schedule, not physics.
	ch.ReduceEvery = host.ReduceEvery
	// The communication-avoiding knobs price the same cadence the
	// measured host run executes: wide halos thin the exchange schedule
	// (and inflate per-rank compute by the redundant shell), the
	// hierarchical reduce thins the collective to node leaders.
	ch.HaloDepth = host.HaloDepth
	ch.ReduceGroup = host.ReduceGroup
	plats := allPlatforms()
	if *name != "" {
		plats = nil
		for _, p := range allPlatforms() {
			if p.Name == *name {
				plats = []machine.Platform{p}
			}
		}
		if len(plats) == 0 {
			log.Fatalf("unknown platform %q", *name)
		}
	}

	var series []stats.Series
	most := 0 // the largest MaxProcs of the selected platforms
	for _, p := range plats {
		most = max(most, p.MaxProcs)
		s := stats.Series{Name: p.Name}
		counts := study.ProcCounts(p.MaxProcs)
		if *procs > 0 {
			counts = []int{*procs}
		}
		for _, np := range counts {
			if np > p.MaxProcs {
				continue
			}
			o, err := p.Simulate(ch, np, *simVersion)
			if err != nil {
				log.Fatal(err)
			}
			s.Add(float64(np), o.Seconds)
		}
		series = append(series, s)
	}
	// Each platform skips counts above its maximum, so a -procs no
	// selected platform can run would otherwise print an empty table.
	if *procs > most {
		log.Fatalf("-procs %d: no selected platform runs more than %d processors", *procs, most)
	}

	if real := host.Backend; real != "" {
		s := stats.Series{Name: fmt.Sprintf("host %s (measured)", real)}
		if host.Scenario != "" {
			s.Name = fmt.Sprintf("host %s %s (measured)", real, host.Scenario)
		}
		counts := []int{1, 2, 4, 8}
		switch {
		case real == "serial":
			// A single-processor backend is always a P=1 data point,
			// whatever -procs says about the simulated sweep.
			counts = []int{1}
		case *procs > 0:
			counts = []int{*procs}
		}
		// -balance has no co-simulation meaning, so it always reaches
		// the backend, which rejects it on serial/shm instead of
		// silently measuring a uniform curve the user did not ask for.
		for _, np := range counts {
			host.Procs = np
			run, err := core.NewRun(host)
			if err != nil {
				log.Fatal(err)
			}
			res, err := run.Execute()
			if err != nil {
				log.Fatal(err)
			}
			s.Add(float64(np), res.Elapsed.Seconds())
		}
		series = append(series, s)
	}

	title := fmt.Sprintf("%s execution time (s), Version %d", ch.Name, *simVersion)
	t := report.SeriesTable(title, "Procs", series)
	t.Render(os.Stdout)
	if *chart {
		fmt.Println()
		report.LogChart(os.Stdout, title+" [log scale]", series, 14)
	}
}
