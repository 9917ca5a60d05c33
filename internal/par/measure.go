package par

import (
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/jet"
	"repro/internal/solver"
)

// Measured cost profiles: the optional warm-up source behind the
// "measured" balance mode. A short run on a *uniform* decomposition
// yields per-rank busy times; spreading each rank's busy time evenly
// over its owned indices gives a piecewise-constant per-index cost
// profile that decomp.WeightedGrid2D can re-balance. The
// profile only steers which indices a rank owns — the physics is
// partition-independent — so timer noise can cost efficiency, never
// correctness.

// busyWeights converts per-rank busy times into a per-index profile,
// or nil when the probe carried no usable signal (a rank's busy time
// rounded to zero, or a single-rank probe).
func busyWeights(d *decomp.Decomposition, res *Result) []float64 {
	if d.P < 2 {
		return nil
	}
	w := make([]float64, d.Nx)
	for r := 0; r < d.P; r++ {
		busy := res.Ranks[r].Busy.Seconds()
		if busy <= 0 {
			return nil
		}
		i0, n := d.Range(r)
		per := busy / float64(n)
		for i := i0; i < i0+n; i++ {
			w[i] = per
		}
	}
	return w
}

// MeasuredColWeights runs a steps-long warm-up on a uniform axial
// (probe×1) decomposition of up to procs ranks and returns the
// per-column cost profile its busy times imply. nil (uniform) when the
// probe cannot resolve a profile.
func MeasuredColWeights(cfg jet.Config, g *grid.Grid, procs, steps int) ([]float64, error) {
	return measuredWeights(cfg, g, procs, steps, false)
}

// MeasuredRowWeights is the radial analog: a 1×probe rank-grid warm-up
// whose per-rank busy times become a per-row cost profile.
func MeasuredRowWeights(cfg jet.Config, g *grid.Grid, procs, steps int) ([]float64, error) {
	return measuredWeights(cfg, g, procs, steps, true)
}

func measuredWeights(cfg jet.Config, g *grid.Grid, procs, steps int, radial bool) ([]float64, error) {
	probe := min(procs, g.Nx/decomp.MinWidth)
	opt := Options{Px: probe, Pr: 1, Policy: solver.Lagged}
	if radial {
		probe = min(procs, g.Nr/decomp.MinHeight)
		opt.Px, opt.Pr = 1, probe
	}
	if probe < 2 {
		return nil, nil
	}
	r, err := NewRunner(cfg, g, opt)
	if err != nil {
		return nil, err
	}
	axis := r.Dec.X
	if radial {
		axis = r.Dec.R
	}
	return busyWeights(axis, r.Run(max(steps, 1))), nil
}
