package study

import (
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/jet"
	"repro/internal/machine"
	"repro/internal/trace"
)

// ---------------------------------------------------------------------
// Parallel-in-time: the parareal schedule priced on the 1995 platforms
// and the serial Parareal loop's convergence measured across Reynolds
// numbers.

// PararealSeconds co-simulates the parareal parallel-in-time schedule:
// the processor pool splits into slices groups, each running the fine
// propagator over its slice of the step range, with serial coarse
// sweeps and slice handoffs between correction iterations. iters <= 0
// prices the worst case (slices iterations, the bitwise-exact
// schedule).
func PararealSeconds(p machine.Platform, ch trace.Characterization, slices, iters, procs int) (float64, error) {
	ch.TimeSlices = slices
	ch.PararealIters = iters
	o, err := p.Simulate(ch, procs, 5)
	if err != nil {
		return 0, err
	}
	return o.Seconds, nil
}

// The measured Reynolds sweep below: the unexcited jet marched by the
// serial Parareal loop (lmt.go) at a fixed defect tolerance, the
// convergence-rate shape Steiner et al. report (Parareal for unsteady
// flow degrades as Reynolds number grows — the coarse propagator's
// missing advective detail feeds back through the corrections).
const (
	// PararealSweepSlices is the slice count K of the measured sweep.
	PararealSweepSlices = 8
	// PararealSweepTol is the defect tolerance the adaptive runs stop at.
	PararealSweepTol = 3e-3
	// PararealSweepSteps is the marched step budget (2 steps per slice).
	PararealSweepSteps = 16
	// PararealSweepNx/Nr size the grid: large enough that the coarse
	// grid resolves the shear layer and the defect contracts instead of
	// flooring on interpolation error.
	PararealSweepNx = 128
	PararealSweepNr = 48
)

// PararealRePoint is one Reynolds number of the measured sweep.
type PararealRePoint struct {
	Re          float64
	Iterations  int     // adaptive iterations to the defect tolerance (K = cap)
	EarlyDefect float64 // defect after the second correction iteration
}

// PararealReSweep runs the serial Parareal loop (2-fold coarsening,
// defect-adaptive) on the unexcited jet at each Reynolds number and
// reports the iteration count plus the second-iteration defect — the
// convergence-rate probe that is defined even when two runs stop at
// the same iteration.
func PararealReSweep(res []float64) ([]PararealRePoint, error) {
	g, err := grid.New(PararealSweepNx, PararealSweepNr, 50, 5)
	if err != nil {
		return nil, err
	}
	out := make([]PararealRePoint, 0, len(res))
	for _, re := range res {
		cfg := jet.Paper()
		cfg.Reynolds = re
		cfg.Eps = 0
		_, defects, err := parareal(cfg, g, PararealSweepSteps, PararealSweepSlices, 2, PararealSweepTol)
		if err != nil {
			return nil, err
		}
		if math.IsNaN(defects[len(defects)-1]) {
			// From the second iteration on, a NaN anywhere in a slice
			// or terminal state makes the defect NaN.
			return nil, fmt.Errorf("study: parareal Re=%g run produced NaN", re)
		}
		p := PararealRePoint{Re: re, Iterations: len(defects)}
		if len(defects) >= 2 {
			p.EarlyDefect = defects[1]
		}
		out = append(out, p)
	}
	return out, nil
}
