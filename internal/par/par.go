// Package par is the distributed-memory parallelization of the paper's
// Section 5, written once: a single Runner decomposes the domain over a
// px-by-pr rank grid (decomp.Grid2D), each rank runs the slab engine of
// internal/solver on its sub-rectangle in its own goroutine, and halo
// exchanges — ghost columns left/right, ghost rows down/up — travel
// through the PVM-like message layer of internal/msg. The paper's
// axial-only decomposition is the shape Px×1: its ranks have no down/up
// neighbours, so they never trade ghost rows (every slab fills its
// physical sides itself) and nothing else distinguishes it.
//
// The three communication strategies the paper evaluates are all
// implemented:
//
//	Version 5: grouped two-column messages, no overlap (the baseline
//	           the paper settled on).
//	Version 6: interior computation overlapped with halo messages, in
//	           both sweeps and both exchange directions (see DESIGN.md
//	           §5b).
//	Version 7: flux columns sent one at a time to reduce burstiness,
//	           at the cost of twice the startups (defined for the axial
//	           shape only: rejected when Pr > 1).
package par

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/decomp"
	"repro/internal/flux"
	"repro/internal/grid"
	"repro/internal/jet"
	"repro/internal/msg"
	"repro/internal/solver"
	"repro/internal/trace"
)

// Version selects the paper's communication strategy.
type Version int

const (
	V5 Version = 5
	V6 Version = 6
	V7 Version = 7
)

func (v Version) String() string { return fmt.Sprintf("Version %d", int(v)) }

// Options configures a parallel run. Zero Px/Pr picks the
// surface-minimizing rank-grid shape for Procs ranks; the paper's axial
// decomposition is spelled Px: p, Pr: 1.
type Options struct {
	Procs  int // total ranks when Px/Pr are zero
	Px, Pr int // explicit rank-grid shape; one alone derives the other from Procs
	// Version selects the communication strategy: V5 (grouped, the
	// default), V6 (interior computation overlapped with the column and
	// row exchanges) or V7 (de-burst flux messages, Pr == 1 only).
	Version Version
	Policy  solver.HaloPolicy
	CFL     float64 // 0 means solver.DefaultCFL
	// ColWeights/RowWeights are optional per-column (len Grid.Nx) and
	// per-row (len Grid.Nr) cost profiles: each direction's cuts minimize
	// the maximum block cost instead of balancing point counts
	// (decomp.WeightedGrid2D); nil keeps that direction's uniform split.
	// Weighting changes which points a rank owns, never the arithmetic —
	// under the Fresh policy every profile reproduces the serial fields
	// bitwise.
	ColWeights []float64
	RowWeights []float64
	// Prob is the scenario problem every slab runs (nil = built-in jet).
	Prob *solver.Problem
	// ReduceGroup, when > 1, makes the convergence controller's
	// allreduce hierarchical: ranks are grouped (over the flat rank
	// numbering) into contiguous shared-memory nodes of this size, each
	// node combines through a combiner (no messages), and only node
	// leaders run the cross-node recursive-doubling plan. 0 or 1 keeps
	// the flat plan. Either way every rank finishes with the
	// bitwise-identical result.
	ReduceGroup int
}

// Shape resolves the rank grid: explicit Px×Pr, one explicit factor
// with the other derived from Procs, or the automatic near-square fit.
// A Procs that contradicts an explicit shape is an error, not a silent
// override — a scaling run must use exactly the width it asked for.
func (o Options) Shape(g *grid.Grid) (px, pr int, err error) {
	p := o.Procs
	switch {
	case o.Px > 0 && o.Pr > 0:
		if p > 0 && o.Px*o.Pr != p {
			return 0, 0, fmt.Errorf("par: shape %dx%d uses %d ranks, not the requested %d", o.Px, o.Pr, o.Px*o.Pr, p)
		}
		return o.Px, o.Pr, nil
	case o.Px > 0:
		if p < o.Px || p%o.Px != 0 {
			return 0, 0, fmt.Errorf("par: px=%d does not divide %d ranks", o.Px, p)
		}
		return o.Px, p / o.Px, nil
	case o.Pr > 0:
		if p < o.Pr || p%o.Pr != 0 {
			return 0, 0, fmt.Errorf("par: pr=%d does not divide %d ranks", o.Pr, p)
		}
		return p / o.Pr, o.Pr, nil
	}
	if p < 1 {
		p = 1
	}
	return decomp.Shape2D(g.Nx, g.Nr, p)
}

// CheckWideFit validates that a Wide(depth) policy's redundant shell
// fits a decomposition axis: with interior neighbours present (two or
// more blocks along the axis), every block must span at least ext+2
// points — ext for the neighbour's shell it hosts, plus the 2-point
// per-stage exchange window beyond it. Returns an actionable error
// naming the deepest feasible policy otherwise.
func CheckWideFit(viscous bool, depth int, spans []int, axis string) error {
	ext := trace.WideExtension(viscous, depth)
	if ext == 0 || len(spans) < 2 {
		return nil
	}
	min := spans[0]
	for _, w := range spans[1:] {
		if w < min {
			min = w
		}
	}
	if min >= ext+2 {
		return nil
	}
	maxDepth := (min-2)/trace.WideSpeed(viscous) + 1
	if maxDepth < 1 {
		maxDepth = 1
	}
	return fmt.Errorf("par: halo depth %d needs a %d-point redundant shell plus the 2-point exchange window on each interior %s side, but the narrowest rank owns only %d %ss; the deepest feasible policy for this decomposition is Wide(%d)",
		depth, ext, axis, min, axis, maxDepth)
}

// WideFit applies CheckWideFit to both axes of a resolved rank grid. The
// runner checks the actual (weighted) decomposition with it, backend
// validation the uniform one — the cheap, probe-free approximation.
func WideFit(viscous bool, depth int, d *decomp.Grid2D) error {
	if err := CheckWideFit(viscous, depth, d.X.Widths(), "column"); err != nil {
		return err
	}
	return CheckWideFit(viscous, depth, d.R.Widths(), "row")
}

// RankStats reports one rank's measured execution profile.
type RankStats struct {
	Rank  int
	Busy  time.Duration // wall time minus receive-wait time
	Wait  time.Duration // time blocked in receives (non-overlapped comm)
	Total time.Duration
	Comm  trace.Counters
	// Dir splits Comm by exchange direction (Radial is zero on a Px×1
	// shape).
	Dir   trace.DirCounters
	Flops float64
	// RedundantFlops is the share of Flops spent advancing a Wide
	// policy's redundant ghost shell (zero under Fresh/Lagged).
	RedundantFlops float64
}

// Result summarizes a parallel run.
type Result struct {
	// Steps is the number of composite steps actually run (fewer than
	// requested when convergence control stopped early).
	Steps   int
	Procs   int
	Dt      float64
	Elapsed time.Duration
	Ranks   []RankStats
	Diag    solver.Diagnostics
	// Converged and Residuals report the convergence controller of
	// RunControlled (empty for a plain fixed-step Run).
	Converged bool
	Residuals []solver.ResidualPoint
}

// TotalComm aggregates the per-rank communication counters.
func (r *Result) TotalComm() trace.Counters {
	var t trace.Counters
	for _, rs := range r.Ranks {
		t.Merge(rs.Comm)
	}
	return t
}

// TotalDir aggregates the per-rank per-direction message counters.
func (r *Result) TotalDir() trace.DirCounters {
	var t trace.DirCounters
	for _, rs := range r.Ranks {
		t.Merge(rs.Dir)
	}
	return t
}

// TotalFlops aggregates the per-rank FLOP counts.
func (r *Result) TotalFlops() float64 {
	f := 0.0
	for _, rs := range r.Ranks {
		f += rs.Flops
	}
	return f
}

// MaxBusy returns the longest per-rank busy time (the load-balance
// metric of the paper's Figure 13).
func (r *Result) MaxBusy() time.Duration {
	m := time.Duration(0)
	for _, rs := range r.Ranks {
		if rs.Busy > m {
			m = rs.Busy
		}
	}
	return m
}

// Runner owns the blocks and the message world of one parallel solver:
// px axial blocks crossed with pr radial blocks, each running the slab
// engine on its sub-rectangle.
type Runner struct {
	Cfg   jet.Config
	Grid  *grid.Grid
	Opt   Options // resolved: Px, Pr, Procs, Version and CFL are filled in
	Dec   *decomp.Grid2D
	World *msg.World
	Slabs []*solver.Slab
	comms []*msg.Comm
	halos []*rankHalo
	reds  []*reducer
}

// NewRunner decomposes the grid, builds one slab per rank, and computes
// the global CFL time step.
func NewRunner(cfg jet.Config, g *grid.Grid, opt Options) (*Runner, error) {
	px, pr, err := opt.Shape(g)
	if err != nil {
		return nil, err
	}
	d, err := decomp.WeightedGrid2D(g.Nx, g.Nr, px, pr, opt.ColWeights, opt.RowWeights)
	if err != nil {
		return nil, err
	}
	switch opt.Version {
	case 0:
		opt.Version = V5
	case V5, V6:
	case V7:
		if pr > 1 {
			return nil, fmt.Errorf("par: Version 7 (de-burst flux messages) is defined for the axial decomposition only, not the 2-D rank grid")
		}
	default:
		return nil, fmt.Errorf("par: unknown communication version %d", int(opt.Version))
	}
	if opt.CFL == 0 {
		opt.CFL = solver.DefaultCFL
	}
	opt.Px, opt.Pr, opt.Procs = px, pr, px*pr
	if err := WideFit(cfg.Viscous, opt.Policy.Depth(), d); err != nil {
		return nil, err
	}
	ext := trace.WideExtension(cfg.Viscous, opt.Policy.Depth())
	if d.Ranks() == 1 {
		ext = 0 // no interior sides: Wide degenerates to Fresh
	}
	group, combs, err := buildCombiners(opt.ReduceGroup, d.Ranks())
	if err != nil {
		return nil, err
	}
	gm := cfg.Gas()
	world := msg.NewWorld(d.Ranks())
	r := &Runner{Cfg: cfg, Grid: g, Opt: opt, Dec: d, World: world}
	// shell is the redundant-shell width toward a neighbour: none on a
	// physical side.
	shell := func(neighbour int) int {
		if neighbour < 0 {
			return 0
		}
		return ext
	}
	dt := math.Inf(1)
	for rank := 0; rank < d.Ranks(); rank++ {
		i0, nxloc, j0, nrloc := d.Block(rank)
		left, right, down, up := d.Neighbors(rank)
		extL, extR, extB, extT := shell(left), shell(right), shell(down), shell(up)
		comm := world.Comm(rank)
		h := newRankHalo(comm, d, rank, nxloc+extL+extR, nrloc+extB+extT, opt.Version, ext)
		sl, err := solver.NewSlabProblem(cfg, opt.Prob, g, gm, i0-extL, nxloc+extL+extR, j0-extB, nrloc+extB+extT, h, opt.Policy)
		if err != nil {
			return nil, err
		}
		sl.ExtL, sl.ExtR, sl.ExtB, sl.ExtT = extL, extR, extB, extT
		sl.Overlap = opt.Version == V6
		sl.InitParallelFlow()
		if local := sl.StableDt(opt.CFL); local < dt {
			dt = local
		}
		r.Slabs = append(r.Slabs, sl)
		r.comms = append(r.comms, comm)
		r.halos = append(r.halos, h)
		r.reds = append(r.reds, newReducer(comm, group, combs, rank))
	}
	for _, sl := range r.Slabs {
		sl.Dt = dt
	}
	return r, nil
}

// Run advances all ranks by n composite steps concurrently and returns
// the measured profile.
func (r *Runner) Run(n int) *Result {
	return r.RunControlled(n, solver.Control{})
}

// RunControlled is Run under residual-driven convergence control: each
// rank executes the solver's controlled step loop with this runner's
// allreduce as the global reduction, so every rank sees the identical
// residual and refreshed dt and all ranks stop on the same step. The
// allreduce runs over the flat rank numbering, so the collective is
// identical for every rank-grid shape. A zero Control reproduces the
// plain fixed-step Run exactly.
func (r *Runner) RunControlled(n int, ctl solver.Control) *Result {
	if ctl.CFL == 0 {
		ctl.CFL = r.Opt.CFL
	}
	var wg sync.WaitGroup
	totals := make([]time.Duration, len(r.Slabs))
	runs := make([]solver.ConvergedRun, len(r.Slabs))
	start := time.Now()
	for i, sl := range r.Slabs {
		wg.Add(1)
		go func(i int, sl *solver.Slab) {
			defer wg.Done()
			t0 := time.Now()
			runs[i] = sl.RunControlled(n, ctl, r.reds[i])
			totals[i] = time.Since(t0)
		}(i, sl)
	}
	wg.Wait()
	res := &Result{
		Steps:     runs[0].Steps,
		Procs:     r.Opt.Procs,
		Dt:        r.Slabs[0].Dt, // the global CFL step every slab runs at
		Elapsed:   time.Since(start),
		Converged: runs[0].Converged,
		Residuals: runs[0].Residuals,
	}
	res.Diag = r.Diagnose()
	for i, sl := range r.Slabs {
		c := r.comms[i]
		dir := r.halos[i].dir
		dir.Reduce = r.reds[i].T
		res.Ranks = append(res.Ranks, RankStats{
			Rank:           i,
			Busy:           totals[i] - c.WaitTime,
			Wait:           c.WaitTime,
			Total:          totals[i],
			Comm:           c.Counters,
			Dir:            dir,
			Flops:          sl.T.Flops,
			RedundantFlops: sl.T.RedundantFlops,
		})
	}
	return res
}

// Advance runs n composite steps concurrently at the fixed dt with no
// monitoring — the light-weight step loop of a propagator, callable
// repeatedly between StoreState gathers.
func (r *Runner) Advance(n int) {
	var wg sync.WaitGroup
	for _, sl := range r.Slabs {
		wg.Add(1)
		go func(sl *solver.Slab) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				sl.Advance()
			}
		}(sl)
	}
	wg.Wait()
}

// StoreState gathers every slab's owned core into a full-grid
// conservative state, tiling the domain exactly (core values only — a
// Wide policy's redundant shell is the neighbour's data).
func (r *Runner) StoreState(full *flux.State) {
	for _, sl := range r.Slabs {
		sl.StoreState(full)
	}
}

// GatherState is StoreState into a freshly allocated state, for
// comparison against the serial solver.
func (r *Runner) GatherState() *flux.State {
	full := flux.NewState(r.Grid.Nx, r.Grid.Nr)
	r.StoreState(full)
	return full
}

// Diagnose aggregates the per-slab diagnostics.
func (r *Runner) Diagnose() solver.Diagnostics {
	var d solver.Diagnostics
	d.MinRho, d.MinP = math.Inf(1), math.Inf(1)
	for _, sl := range r.Slabs {
		sd := sl.Diagnose()
		d.Mass += sd.Mass
		d.Energy += sd.Energy
		d.OwnPoints += sd.OwnPoints
		if sd.MaxV > d.MaxV {
			d.MaxV = sd.MaxV
		}
		if sd.MinRho < d.MinRho {
			d.MinRho = sd.MinRho
		}
		if sd.MinP < d.MinP {
			d.MinP = sd.MinP
		}
		d.HasNaN = d.HasNaN || sd.HasNaN
	}
	return d
}
