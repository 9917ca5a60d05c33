// Loadbalance reproduces the paper's Figure 13 scenario three times
// over: the per-processor busy times of the co-simulated IBM SP at 16
// processors, the same co-simulation on a skewed per-column cost
// profile before and after cost-weighted decomposition, and a real
// measurement from the goroutine-parallel solver on the host.
//
//	go run ./examples/loadbalance
package main

import (
	"fmt"
	"log"
	"runtime"
	"strings"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/stats"
	"repro/internal/study"
	"repro/internal/trace"
)

func bar(v, max float64, width int) string {
	n := int(v / max * float64(width))
	return strings.Repeat("#", n)
}

func main() {
	// Simulated SP, the paper's configuration.
	busy, err := study.Fig13()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Simulated IBM SP, Navier-Stokes, 16 processors (cf. paper Figure 13):")
	max := stats.Max(busy)
	for i, b := range busy {
		fmt.Printf("  proc %2d  %7.1f s  %s\n", i, b, bar(b, max, 40))
	}
	d16, err := decomp.Axial(trace.PaperNS().Nx, 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  spread (max-min)/mean = %.2f%% — almost perfect load balance\n", stats.RelSpread(busy)*100)
	fmt.Printf("  point imbalance %.2f%%, cost imbalance (uniform profile) %.2f%% — the\n",
		d16.Imbalance()*100, d16.CostImbalance(nil)*100)
	fmt.Println("  two metrics agree only because the paper's per-point cost is flat")
	fmt.Println()

	// The same co-simulation on a skewed profile: balanced point counts
	// stop balancing busy times, and the cost-weighted decomposition
	// (decomp.WeightedAxial over the identical profile) restores it.
	uniform, weighted, err := study.Fig13Skewed(16)
	if err != nil {
		log.Fatal(err)
	}
	skew := trace.RampCost(trace.PaperNS().Nx, study.Fig13SkewRatio)
	dw, err := decomp.WeightedAxial(trace.PaperNS().Nx, 16, skew)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Same SP with a %gx per-column cost ramp (-balance in cmd/jetsim):\n", study.Fig13SkewRatio)
	max = stats.Max(uniform)
	for i := range uniform {
		fmt.Printf("  proc %2d  uniform %7.1f s %-22s weighted %7.1f s %s\n",
			i, uniform[i], bar(uniform[i], max, 20), weighted[i], bar(weighted[i], max, 20))
	}
	fmt.Printf("  busy-time spread: %.1f%% uniform -> %.1f%% weighted\n",
		stats.RelSpread(uniform)*100, stats.RelSpread(weighted)*100)
	fmt.Printf("  weighted split: point imbalance %.1f%% (deliberately uneven widths),\n", dw.Imbalance()*100)
	fmt.Printf("  cost imbalance %.1f%% (what gates the step)\n\n", dw.CostImbalance(skew)*100)

	// Real run on the host: per-rank arithmetic work (exact FLOP
	// counts) under the analytic flops balance mode.
	procs := 8
	if runtime.NumCPU() < 4 {
		procs = 4
	}
	run, err := core.NewRun(core.Config{
		Nx: 128, Nr: 48, Steps: 50,
		Backend: "mp:v5", Procs: procs,
		Balance: "flops",
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := run.Execute()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Real goroutine run on this host (%d ranks, %d steps, -balance flops):\n", procs, res.Steps)
	flops := make([]float64, len(res.PerRank))
	for i, r := range res.PerRank {
		flops[i] = r.Flops
	}
	maxF := stats.Max(flops)
	for _, r := range res.PerRank {
		fmt.Printf("  rank %2d  %10.3g flops  busy %-10s  %s\n",
			r.Rank, r.Flops, r.Busy.Round(1e6), bar(r.Flops, maxF, 40))
	}
	fmt.Printf("  flop spread (max-min)/mean = %.2f%%\n", stats.RelSpread(flops)*100)
}
