// Package solver implements the time integration of the paper's
// numerical model on a slab of axial columns. The same engine serves
// the serial reference solver (one slab spanning the domain) and every
// rank of the distributed-memory solver (internal/par), which guarantees
// that the parallel code computes exactly the serial arithmetic.
//
// A composite time step alternates the split one-dimensional operators
// exactly as the paper's Section 3:
//
//	Q^{n+1} = L1x L1r Q^n        (radial sweep first)
//	Q^{n+2} = L2r L2x Q^{n+1}    (axial sweep first)
//
// Each sweep is a predictor and a corrector stage, and every stage runs
// one schedule (see stage): start its halo exchanges, compute the core,
// finish the exchanges, compute the frame. The core — the points that
// read no ghost still in flight — is where the paper's Version 6 hides
// communication; Version 5 is the same schedule with an empty core.
package solver

import (
	"fmt"
	"math"

	"repro/internal/bc"
	"repro/internal/field"
	"repro/internal/flux"
	"repro/internal/gas"
	"repro/internal/grid"
	"repro/internal/jet"
	"repro/internal/scheme"
	"repro/internal/trace"
)

// Kind tags the purpose of a halo fill so the message layer can group
// and account for each of the paper's exchanges. A Kind names what a
// fill carries; the direction travels separately as a Dir, so the 2-D
// decomposition reuses the same tags on its row exchanges — KFlux in
// the Radial direction carries radial-flux rows, the sweep-direction
// flux exchange of the radial operator.
type Kind int

const (
	KPrims      Kind = iota // E1: rho,u,v,T of the current state
	KFlux                   // E2: sweep-direction flux (axial F, or radial r*g rows)
	KPredPrims              // E3: rho,u,v,T of the predicted state
	KPredFlux               // E4: predicted sweep-direction flux
	KPrimsR                 // prims of the radial sweep (axial: Fresh policy only)
	KPredPrimsR             // predicted prims of the radial sweep (axial: Fresh only)
	NKinds
)

func (k Kind) String() string {
	switch k {
	case KPrims:
		return "prims"
	case KFlux:
		return "flux"
	case KPredPrims:
		return "pred-prims"
	case KPredFlux:
		return "pred-flux"
	case KPrimsR:
		return "prims-r"
	case KPredPrimsR:
		return "pred-prims-r"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Flux reports whether k tags a sweep-direction flux bundle: wall
// ghosts of a flux bundle take the flux parity map rather than the
// primitive one, and Version 7 de-bursts exactly these exchanges.
func (k Kind) Flux() bool { return k == KFlux || k == KPredFlux }

// Dir is a ghost-fill direction: Axial fills the two ghost columns on
// the left/right sides, Radial the two ghost rows on the bottom/top
// sides.
type Dir int

const (
	Axial Dir = iota
	Radial
)

// Halo trades a slab's interior ghosts with its neighbours. It never
// touches a physical side — the slab fills those itself (see edges) —
// so one pair of halves serves both directions, and a slab with no
// interior sides (the serial solver) has no halo at all.
type Halo interface {
	// Start sends the slab's two boundary strips of b next to each
	// interior side in direction d (columns for Axial, rows for Radial)
	// without waiting for the incoming ones; Finish receives those into
	// the interior-side ghosts. Start followed by Finish is one
	// exchange; the paper's Version 6 computes the interior in between.
	Start(d Dir, k Kind, b *flux.State)
	Finish(d Dir, k Kind, b *flux.State)
	// Skip records an exchange that an exchange-free step of a Wide(k)
	// policy leaves out: the interior ghosts keep their decaying shell
	// data, and the halo books the startups saved.
	Skip(d Dir, k Kind)
	// Refresh re-exchanges the redundant shell of a Wide(k) policy: on
	// each interior side the neighbour's freshly-owned copy of the
	// shell's ExtL/ExtR columns (and ExtB/ExtT rows) replaces the
	// decayed local one, resetting the staleness clock.
	Refresh(b *flux.State)
}

// noHalo is the halo of a slab without interior sides.
type noHalo struct{}

func (noHalo) Start(Dir, Kind, *flux.State)  {}
func (noHalo) Finish(Dir, Kind, *flux.State) {}
func (noHalo) Skip(Dir, Kind)                {}
func (noHalo) Refresh(*flux.State)           {}

// HaloPolicy selects the halo treatment (see DESIGN.md §5): the
// Lagged/Fresh pair of the paper's message-budget study, or the
// communication-avoiding Wide(k) family. The numeric value of a
// Wide(k) policy is k itself, so Fresh is literally Wide(1) — the
// depth-1 member whose exchange cadence is every stage of every step.
type HaloPolicy int

const (
	// Lagged reuses the newest already-exchanged halo for viscous
	// cross-derivatives in the radial sweep. This matches the paper's
	// Table 1 message budget exactly (16 startups/step for N-S).
	Lagged HaloPolicy = iota
	// Fresh adds two radial-sweep prim exchanges so that every stencil
	// sees current data; the parallel run then reproduces the serial
	// arithmetic bitwise.
	Fresh
)

// Wide returns the depth-k communication-avoiding policy: each rank
// carries a redundant shell of trace.WideExtension points per interior
// side and advances it alongside its core, so interior neighbours
// exchange (per-stage, exactly as Fresh) only on every k-th step,
// preceded by a shell refresh. Between exchanges the stale shell decays
// from the outside in, never reaching the core, so owned points stay
// bitwise-identical to the serial run. Wide(1) is Fresh itself.
func Wide(k int) HaloPolicy {
	if k < 1 {
		panic("solver: Wide halo depth must be >= 1")
	}
	return HaloPolicy(k)
}

// Depth returns the exchange cadence of the policy in composite steps:
// 1 for Lagged and Fresh (exchange every step), k for Wide(k).
func (p HaloPolicy) Depth() int {
	if p <= Fresh {
		return 1
	}
	return int(p)
}

func (p HaloPolicy) String() string {
	switch {
	case p == Fresh:
		return "fresh"
	case p > Fresh:
		return fmt.Sprintf("wide(%d)", int(p))
	}
	return "lagged"
}

// Slab owns a contiguous sub-rectangle of the domain — a range of axial
// columns crossed with a range of radial rows — and advances it in
// time. All fields are sized to the local extent plus ghost layers.
// The axial-only decomposition is the special case NrLoc == Grid.Nr
// with both radial sides physical.
type Slab struct {
	Grid *grid.Grid
	Gas  gas.Model
	Cfg  jet.Config

	I0    int // first owned global column
	NxLoc int // number of owned columns
	Left  bool
	Right bool

	J0     int       // first owned global row
	NrLoc  int       // number of owned rows
	Bottom bool      // owns the axis boundary (j0 == 0)
	Top    bool      // owns the far-field boundary (j0+nrloc == Grid.Nr)
	R      []float64 // radii of the owned rows (Grid.R[J0 : J0+NrLoc])

	// ExtL/ExtR/ExtB/ExtT are the widths of the redundant ghost shell a
	// Wide(k) halo policy carries on each interior side: the slab's
	// rectangle (I0/NxLoc/J0/NrLoc and every field) is EXTENDED by these
	// amounts, the shell is advanced redundantly alongside the core, and
	// only the core — columns [ExtL, NxLoc-ExtR) by rows [ExtB,
	// NrLoc-ExtT) — is ever reported (residuals, diagnostics, gathers).
	// All zero under Lagged/Fresh and on serial slabs.
	ExtL, ExtR, ExtB, ExtT int

	Q, QP, QN *flux.State // state, predicted state, next state
	W, WP     *flux.State // primitives of Q and QP
	F, FP     *flux.State // flux scratch (axial f or radial r*g)
	Src, SrcP *field.Field

	In *bc.Inflow
	// Prob is the scenario problem (nil = built-in excited jet). The
	// wall flags below cache Prob.Wall masked to the physical sides
	// this slab owns; they gate the wall branches of the operators so
	// the jet path is untouched.
	Prob       *Problem
	leftWall   bool
	rightWall  bool
	bottomWall bool
	topWall    bool

	// Halo trades the interior ghosts; the slab fills the ghosts of its
	// physical sides itself (see edges).
	Halo   Halo
	Policy HaloPolicy
	// Overlap selects the paper's Version 6: each stage computes its
	// core — the points that read no ghost still in flight — between
	// the halo's Start and Finish, at the cost of split loops (higher
	// setup overhead, reduced temporal locality). Without it the core is
	// empty and every point waits for Finish: Version 5 (see stage).
	Overlap bool
	// Pool, when non-nil, parallelizes each column loop across workers —
	// the shared-memory DOALL model the paper used on the Cray Y-MP.
	// Every kernel region is a fork-join loop over independent columns,
	// so the result is bitwise identical to the serial execution.
	Pool ParallelFor

	Dt   float64
	Time float64
	Step int

	RInv []float64
	T    *trace.Counters

	// momBuf backs AxialMomentum's returned columns and momOut its
	// column-header slice, both allocated once and reused across calls.
	momBuf []float64
	momOut [][]float64

	// q0 is the residual snapshot of the convergence monitor (see
	// converge.go), allocated lazily on the first monitored step.
	q0 *flux.State

	// ctx carries the per-stage kernel parameters to the prebuilt loop
	// bodies below. The bodies are bound once at construction so that
	// dispatching a parallel region allocates nothing: a fresh closure
	// per pfor call escapes through the ParallelFor interface and was
	// the solver's last steady-state allocation. The operators mutate
	// ctx only between fork-joins (Split returns after all workers
	// finish), so the workers always observe a settled ctx.
	ctx stageCtx

	fnPrims         func(lo, hi int)
	fnStressFluxX   func(lo, hi int)
	fnPredictXPrims func(lo, hi int)
	fnCorrectXPrims func(lo, hi int)
	fnStressFluxR   func(lo, hi int)
	fnPredictRPrims func(lo, hi int)
	fnCorrectRPrims func(lo, hi int)

	// wReady records that W already holds the primitives of Q on every
	// interior point — established by the fused corrector+primitives
	// sweep (plus its boundary fixups) of the previous operator, so the
	// next operator's full stage-A primitive pass can be skipped.
	wReady bool

	// exch records whether the current composite step exchanges with
	// interior neighbours (true on every step under Lagged/Fresh; every
	// Depth()-th step under Wide). Set by Advance, consumed by start.
	exch bool
}

// start begins one fill of b's ghosts in direction d and reports
// whether messages are in flight, in which case Halo.Finish completes
// the fill. An exchange step sends the interior strips; an
// exchange-free step of a Wide policy skips them (the interior ghosts
// then hold decaying shell data, which the redundant shell keeps away
// from the core); a cross fill — the other direction's ghosts a sweep's
// viscous cross-derivatives read — under Lagged keeps the newest
// already-exchanged (lagged) interior ghosts. The physical sides are
// filled at once either way: local work reading owned points only.
func (s *Slab) start(d Dir, k Kind, b *flux.State, cross bool) bool {
	live := s.exch && !(cross && s.Policy == Lagged)
	switch {
	case live:
		s.Halo.Start(d, k, b)
	case !s.exch:
		s.Halo.Skip(d, k)
	}
	s.edges(d, k, b)
	return live
}

// stage runs one kernel region fn on the schedule Versions 5 and 6
// share: start the fills of b in the sweep direction d (and, when
// cross, in the other direction), compute the core, finish the fills,
// compute the frame. Fills run axial first, then radial. w is how far
// fn's stencil reaches. Version 5 has the empty core, so every point
// waits for Finish; either way each point reads the same ghosts, so the
// two versions are bitwise identical.
func (s *Slab) stage(d Dir, k Kind, b *flux.State, cross bool, w int, fn func(lo, hi int)) {
	var fly [2]bool // directions with messages in flight
	for e := Axial; e <= Radial; e++ {
		if e == d || cross {
			fly[e] = s.start(e, k, b, e != d)
		}
	}
	c0, c1, j0, j1 := s.core(w, fly[Axial], fly[Radial])
	s.ctx.j0, s.ctx.j1 = j0, j1
	s.pfor(c0, c1, fn)
	for e := Axial; e <= Radial; e++ {
		if fly[e] {
			s.Halo.Finish(e, k, b)
		}
	}
	s.frame(c0, c1, j0, j1, fn)
}

// core returns the columns [c0, c1) by rows [j0, j1) of a stage whose
// stencil reaches w points out that read no ghost still in flight, ax
// and rad telling which directions have messages out. Only Version 6
// on an exchange step has a non-empty core; Version 5 returns the empty
// one (0, 0, 0, NrLoc), which makes the frame the whole slab.
func (s *Slab) core(w int, ax, rad bool) (c0, c1, j0, j1 int) {
	n, nr := s.NxLoc, s.NrLoc
	if !s.Overlap || !s.exch {
		return 0, 0, 0, nr
	}
	c0, c1, j0, j1 = 0, n, 0, nr
	if ax && !(s.Left && s.Right) {
		c0, c1 = w, n-w
	}
	if rad && !(s.Bottom && s.Top) {
		j0, j1 = w, nr-w
	}
	return c0, c1, j0, j1
}

// frame computes fn outside the core [c0, c1)×[j0, j1): the edge
// columns at full height, then the bottom and the top edge rows of the
// core columns, in that order (the fused radial corrector recovers a
// column's primitives in the region that reaches its top row, so that
// region must come last).
func (s *Slab) frame(c0, c1, j0, j1 int, fn func(lo, hi int)) {
	c, nr := &s.ctx, s.NrLoc
	c.j0, c.j1 = 0, nr
	s.pfor(0, c0, fn)
	s.pfor(c1, s.NxLoc, fn)
	if j0 > 0 {
		c.j0, c.j1 = 0, j0
		s.pfor(c0, c1, fn)
	}
	if j1 < nr {
		c.j0, c.j1 = j1, nr
		s.pfor(c0, c1, fn)
	}
}

// edges applies the physical boundary treatment to the ghosts of the
// sides the slab owns in direction d. Axially: cubic extrapolation (the
// paper's artificial points). Radially: the axis parity mirror below
// and cubic far-field extrapolation above — one map for the primitive
// and radial-flux bundles alike (component IMr odd, the rest even; cf.
// flux.AxisMirrorPrims and flux.MirrorFluxR). Wall sides take the
// solid-wall mirror instead, which does tell the bundles apart.
func (s *Slab) edges(d Dir, k Kind, b *flux.State) {
	if d == Axial {
		if s.Left {
			if s.leftWall {
				flux.WallMirrorColsLeft(b, k.Flux())
			} else {
				for m := range b {
					b[m].ExtrapolateLeft()
				}
			}
		}
		if s.Right {
			if s.rightWall {
				flux.WallMirrorColsRight(b, k.Flux())
			} else {
				for m := range b {
					b[m].ExtrapolateRight()
				}
			}
		}
		return
	}
	if s.Bottom {
		if s.bottomWall {
			flux.WallMirrorRowsBottom(b, k.Flux())
		} else {
			flux.AxisMirrorPrims(b)
		}
	}
	if s.Top {
		if s.topWall {
			flux.WallMirrorRowsTop(b, s.Prob.Wall.ULid, k.Flux())
		} else {
			flux.TopExtrapolatePrims(b)
		}
	}
}

// stageCtx parameterizes the prebuilt loop bodies of a Slab. q/w/f/src
// select the bundle triple a stage operates on (current state in the
// predictor, predicted state in the corrector); j0/j1 restrict the
// stress/flux kernels and the radial scheme kernels to a row range
// (a core or frame region, see stage).
type stageCtx struct {
	v      scheme.Variant
	lam    float64
	visc   bool
	q, w   *flux.State
	f      *flux.State
	src    *field.Field
	j0, j1 int
}

// bindKernels builds the reusable loop bodies. Buffers with fixed roles
// (Q, QP, QN, F, FP, ...) are referenced directly; only the
// stage-dependent choices go through ctx.
func (s *Slab) bindKernels() {
	gm, g := s.Gas, s.Grid
	c := &s.ctx
	s.fnPrims = func(lo, hi int) { flux.Primitives(gm, c.q, c.w, lo, hi) }
	s.fnStressFluxX = func(lo, hi int) {
		flux.StressFluxX(gm, g.Dx, g.Dr, s.R, c.q, c.w, c.f, lo, hi, c.j0, c.j1, c.visc)
	}
	s.fnPredictXPrims = func(lo, hi int) {
		scheme.PredictXPrims(c.v, c.lam, gm, s.Q, s.F, s.QP, s.WP, lo, hi)
	}
	s.fnStressFluxR = func(lo, hi int) {
		flux.StressFluxRSource(gm, g.Dx, g.Dr, s.R, c.q, c.w, c.f, c.src, lo, hi, c.j0, c.j1, c.visc)
	}
	s.fnPredictRPrims = func(lo, hi int) {
		scheme.PredictRRowsPrims(c.v, c.lam, s.Dt, gm, s.RInv, s.Q, s.F, s.QP, s.WP, s.Src, lo, hi, c.j0, c.j1)
	}
	// The fused corrector+primitives bodies additionally leave W holding
	// the primitives of QN (the next operator's Q), skipping the points
	// a boundary condition will rewrite — the operator fixes those up
	// after applying the boundary (and OutflowX/FarFieldR still need the
	// pre-operator primitives there, so they must not be clobbered).
	s.fnCorrectXPrims = func(lo, hi int) {
		p0, p1 := lo, hi
		if s.Left && p0 == 0 {
			p0 = 1
		}
		if s.Right && p1 == s.NxLoc {
			p1 = s.NxLoc - 1
		}
		scheme.CorrectXPrims(c.v, c.lam, gm, s.Q, s.QP, s.FP, s.QN, s.W, lo, hi, p0, p1)
	}
	s.fnCorrectRPrims = func(lo, hi int) {
		p0 := lo
		if s.Left && p0 == 0 {
			p0 = 1
		}
		// A column's primitives are recovered by the region that
		// reaches its top row: the last one of the column (see frame).
		jt := 0
		if c.j1 == s.NrLoc {
			jt = s.NrLoc
			if s.Top && !s.topWall {
				jt-- // FarFieldR reads the old top-row primitives, then rewrites QN there
			}
		}
		scheme.CorrectRRowsPrims(c.v, c.lam, s.Dt, gm, s.RInv, s.Q, s.QP, s.FP, s.QN, s.W, s.SrcP, lo, hi, c.j0, c.j1, p0, jt)
	}
}

// NewSlabProblem builds a slab owning the sub-rectangle of global
// columns [i0, i0+nxloc) by global rows [j0, j0+nrloc) of g for a
// scenario problem; nil prob is the built-in jet. Sides that do not
// coincide with the physical boundary are interior: their ghosts are
// traded by the halo, which may be nil only when there are none.
func NewSlabProblem(cfg jet.Config, prob *Problem, g *grid.Grid, gm gas.Model, i0, nxloc, j0, nrloc int, halo Halo, policy HaloPolicy) (*Slab, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if nxloc < 4 {
		return nil, fmt.Errorf("solver: slab needs >= 4 columns for the 2-4 stencil and cubic extrapolation, got %d", nxloc)
	}
	if nrloc < 4 {
		return nil, fmt.Errorf("solver: slab needs >= 4 rows for the 2-4 stencil and boundary treatment, got %d", nrloc)
	}
	if i0 < 0 || i0+nxloc > g.Nx {
		return nil, fmt.Errorf("solver: slab [%d,%d) outside grid of %d columns", i0, i0+nxloc, g.Nx)
	}
	if j0 < 0 || j0+nrloc > g.Nr {
		return nil, fmt.Errorf("solver: slab rows [%d,%d) outside grid of %d rows", j0, j0+nrloc, g.Nr)
	}
	s := &Slab{
		Grid: g, Gas: gm, Cfg: cfg,
		I0: i0, NxLoc: nxloc,
		Left: i0 == 0, Right: i0+nxloc == g.Nx,
		J0: j0, NrLoc: nrloc,
		Bottom: j0 == 0, Top: j0+nrloc == g.Nr,
		R: g.R[j0 : j0+nrloc],
		Q: flux.NewState(nxloc, nrloc), QP: flux.NewState(nxloc, nrloc), QN: flux.NewState(nxloc, nrloc),
		W: flux.NewState(nxloc, nrloc), WP: flux.NewState(nxloc, nrloc),
		F: flux.NewState(nxloc, nrloc), FP: flux.NewState(nxloc, nrloc),
		Src: field.New(nxloc, nrloc), SrcP: field.New(nxloc, nrloc),
		Halo: halo, Policy: policy,
		RInv: make([]float64, nrloc),
		T:    &trace.Counters{},
	}
	for j, r := range s.R {
		s.RInv[j] = 1 / r
	}
	if halo == nil {
		s.Halo = noHalo{}
	}
	wall := prob.Walls()
	s.Prob = prob
	s.leftWall = s.Left && wall.Left
	s.rightWall = s.Right && wall.Right
	s.bottomWall = s.Bottom && wall.Bottom
	s.topWall = s.Top && wall.Top
	switch {
	case wall.Left:
		// Wall on the inflow side: no Dirichlet source needed.
	case prob != nil && prob.Inflow != nil:
		s.In = bc.NewInflowSource(prob.Inflow(cfg, gm, s.R), gm, len(s.R))
	default:
		s.In = bc.NewInflow(cfg, gm, s.R)
	}
	s.bindKernels()
	return s, nil
}

// InitParallelFlow sets the initial condition. The built-in jet uses
// the mean inflow profile extended downstream (parallel flow), v = 0,
// constant static pressure; a scenario problem with an Init hook
// supplies its own pointwise state instead.
func (s *Slab) InitParallelFlow() {
	gm := s.Gas
	if s.Prob != nil && s.Prob.Init != nil {
		for c := 0; c < s.NxLoc; c++ {
			x := s.Grid.X[s.I0+c]
			for j, r := range s.R {
				w := s.Prob.Init(s.Cfg, gm, x, r)
				q := gm.ToConserved(w)
				s.Q[flux.IRho].Set(c, j, q.Rho)
				s.Q[flux.IMx].Set(c, j, q.Mx)
				s.Q[flux.IMr].Set(c, j, q.Mr)
				s.Q[flux.IE].Set(c, j, q.E)
			}
		}
		return
	}
	for c := 0; c < s.NxLoc; c++ {
		for j, r := range s.R {
			T := s.Cfg.MeanT(gm.Gamma, r)
			w := gas.Primitive{Rho: 1 / T, U: s.Cfg.MeanU(r), V: 0, P: gm.AmbientPressure()}
			q := gm.ToConserved(w)
			s.Q[flux.IRho].Set(c, j, q.Rho)
			s.Q[flux.IMx].Set(c, j, q.Mx)
			s.Q[flux.IMr].Set(c, j, q.Mr)
			s.Q[flux.IE].Set(c, j, q.E)
		}
	}
}

// StableDt returns the slab-local CFL-stable time step, cfl over the
// maximum stability rate of the owned points (see MaxRate).
func (s *Slab) StableDt(cfl float64) float64 {
	return cfl / s.MaxRate()
}

// variantFor returns the operator variant for a composite step index
// (L1 on even steps, L2 on odd) and whether the radial sweep runs first.
func variantFor(step int) (scheme.Variant, bool) {
	if step%2 == 0 {
		return scheme.L1, true // Q^{n+1} = L1x L1r Q^n
	}
	return scheme.L2, false // Q^{n+2} = L2r L2x Q^{n+1}
}

// Advance performs one composite time step (one Lx and one Lr sweep).
// Under a Wide(k) policy only every k-th step exchanges with interior
// neighbours: those steps first refresh the redundant shell (except
// step 0, whose initial condition is analytic and exact everywhere),
// then run the per-stage exchanges exactly as Fresh would; the k-1
// steps in between communicate nothing and let the shell decay.
func (s *Slab) Advance() {
	depth := s.Policy.Depth()
	s.exch = depth <= 1 || s.Step%depth == 0
	if s.exch && depth > 1 && s.Step > 0 {
		s.Halo.Refresh(s.Q)
		s.wReady = false // W's shell region is stale relative to the refreshed Q
	}
	v, rFirst := variantFor(s.Step)
	if rFirst {
		s.opR(v)
		s.opX(v)
	} else {
		s.opX(v)
		s.opR(v)
	}
	s.Step++
	s.Time += s.Dt
}

// ParallelFor runs fn over subranges of [lo, hi) on a worker pool; see
// internal/shm for the implementation. A DOALL directive in the paper's
// Cray terms.
type ParallelFor interface {
	Split(lo, hi int, fn func(lo, hi int))
}

// pfor dispatches a column loop to the pool, or runs it inline; an
// empty range returns at once.
func (s *Slab) pfor(lo, hi int, fn func(lo, hi int)) {
	switch {
	case lo >= hi:
	case s.Pool == nil:
		fn(lo, hi)
	default:
		s.Pool.Split(lo, hi, fn)
	}
}

// sides pins the inflow and wall columns of a stage's result q and
// recomputes their primitives into w (the fused kernels recovered the
// primitives of the values the boundary condition has just replaced).
// Wall columns are pinned in the radial sweep too — the viscous
// cross-derivatives would otherwise shear momentum into the wall nodes.
func (s *Slab) sides(q, w *flux.State) {
	n := s.NxLoc
	if s.Left {
		if s.leftWall {
			s.wallColumn(q, 0)
		} else {
			s.In.Apply(q, 0, s.Time+s.Dt)
		}
		flux.Primitives(s.Gas, q, w, 0, 1)
	}
	if s.rightWall {
		s.wallColumn(q, n-1)
		flux.Primitives(s.Gas, q, w, n-1, n)
	}
}

// opX applies the axial operator (predictor + corrector) with the given
// variant. Communication pattern: E1 prims, E2 flux, E3 predicted
// prims, E4 predicted flux — the paper's four grouped N-S exchanges.
// The radial ghost rows feed the stress tensor's cross-derivatives:
// interior radial sides exchange fresh rows under the Fresh policy and
// reuse lagged ones otherwise.
func (s *Slab) opX(v scheme.Variant) {
	gm, g := s.Gas, s.Grid
	visc := s.Cfg.Viscous
	n := s.NxLoc
	c := &s.ctx
	c.v, c.lam, c.visc = v, s.Dt/(6*g.Dx), visc

	// Stage A: predictor, fused with the recovery of the predicted
	// primitives (the first pass of stage B).
	c.q, c.w, c.f = s.Q, s.W, s.F
	if !s.wReady {
		s.pfor(0, n, s.fnPrims)
	}
	s.wReady = false
	s.stage(Axial, KPrims, s.W, true, 1, s.fnStressFluxX)
	s.stage(Axial, KFlux, s.F, false, 2, s.fnPredictXPrims)
	s.sides(s.QP, s.WP)

	// Stage B: corrector. The predicted-prims exchange feeds the
	// predicted stress tensor; Euler needs no stresses, which is why the
	// paper's Euler budget is three exchanges per step, not four. The
	// corrector also recovers the primitives of QN into W, so the next
	// operator starts with its stage-A pass already done.
	c.q, c.w, c.f = s.QP, s.WP, s.FP
	if visc {
		s.stage(Axial, KPredPrims, s.WP, true, 1, s.fnStressFluxX)
	} else {
		c.j0, c.j1 = 0, s.NrLoc
		s.pfor(0, n, s.fnStressFluxX)
	}
	s.stage(Axial, KPredFlux, s.FP, false, 2, s.fnCorrectXPrims)
	if s.Right && !s.rightWall {
		bc.OutflowX(gm, g.Dx, s.Dt, s.Q, s.W, s.F, s.QN, n-1)
		flux.Primitives(gm, s.QN, s.W, n-1, n)
	}
	s.sides(s.QN, s.W)
	s.Q, s.QN = s.QN, s.Q
	s.wReady = true
	s.accountX(visc, n)
}

// opR applies the radial operator. The axial-only decomposition needs
// no flux communication here (under the Fresh policy two extra axial
// prim exchanges keep viscous cross-derivatives exact at slab
// boundaries); a 2-D slab additionally exchanges prim and radial-flux
// ghost rows with its down/up neighbours — the radial direction is the
// sweep direction, so its exchanges happen under either policy, exactly
// as the axial exchanges of opX do.
func (s *Slab) opR(v scheme.Variant) {
	gm, g := s.Gas, s.Grid
	visc := s.Cfg.Viscous
	n := s.NxLoc
	c := &s.ctx
	c.v, c.lam, c.visc = v, s.Dt/(6*g.Dr), visc

	// Stage A: predictor, fused with the predicted primitives.
	c.q, c.w, c.f, c.src = s.Q, s.W, s.F, s.Src
	if !s.wReady {
		s.pfor(0, n, s.fnPrims)
	}
	s.wReady = false
	s.stage(Radial, KPrimsR, s.W, true, 1, s.fnStressFluxR)
	s.stage(Radial, KFlux, s.F, false, 2, s.fnPredictRPrims)
	s.sides(s.QP, s.WP)

	// Stage B: corrector, fused with the primitives of QN; the far-field
	// row and the boundary columns are recomputed after their
	// conditions apply.
	c.q, c.w, c.f, c.src = s.QP, s.WP, s.FP, s.SrcP
	s.stage(Radial, KPredPrimsR, s.WP, true, 1, s.fnStressFluxR)
	s.stage(Radial, KPredFlux, s.FP, false, 2, s.fnCorrectRPrims)
	if s.Top && !s.topWall {
		bc.FarFieldR(gm, g.Dr, s.Dt, g.Lr, s.R, s.Q, s.W, s.F, s.Src, s.QN, 0, n)
		flux.PrimitivesRect(gm, s.QN, s.W, 0, n, s.NrLoc-1, s.NrLoc)
	}
	s.sides(s.QN, s.W)
	s.Q, s.QN = s.QN, s.Q
	s.wReady = true
	s.accountR(visc, n)
}

// redundantPoints returns how many of the slab's points belong to the
// Wide policy's redundant shell rather than the core.
func (s *Slab) redundantPoints() float64 {
	core := (s.NxLoc - s.ExtL - s.ExtR) * (s.NrLoc - s.ExtB - s.ExtT)
	return float64(s.NxLoc*s.NrLoc - core)
}

// accountX accumulates the analytic FLOP count of one axial operator.
// Shell points are included in Flops (the rank really does the work)
// and broken out in RedundantFlops — the compute price of the Wide
// policy's saved startups.
func (s *Slab) accountX(visc bool, n int) {
	pts := float64(n * s.NrLoc)
	fl := 2 * float64(flux.FlopsPrims)
	if visc {
		fl += 2 * float64(flux.FlopsStress+flux.FlopsFluxXVisc)
	} else {
		fl += 2 * float64(flux.FlopsFluxXInvisc)
	}
	fl += float64(scheme.FlopsPredictX + scheme.FlopsCorrectX)
	s.T.AddFlops(fl * pts)
	s.T.RedundantFlops += fl * s.redundantPoints()
	if s.Right {
		s.T.AddFlops(float64(bc.FlopsCharPoint) * float64(s.NrLoc))
		s.T.RedundantFlops += float64(bc.FlopsCharPoint) * float64(s.ExtB+s.ExtT)
	}
}

// accountR accumulates the analytic FLOP count of one radial operator.
func (s *Slab) accountR(visc bool, n int) {
	pts := float64(n * s.NrLoc)
	fl := 2 * float64(flux.FlopsPrims+flux.FlopsSource)
	if visc {
		fl += 2 * float64(flux.FlopsStress+flux.FlopsFluxRVisc)
	} else {
		fl += 2 * float64(flux.FlopsFluxRInvisc)
	}
	fl += float64(scheme.FlopsPredictR + scheme.FlopsCorrectR)
	s.T.AddFlops(fl * pts)
	s.T.RedundantFlops += fl * s.redundantPoints()
	if s.Top {
		s.T.AddFlops(float64(bc.FlopsCharPoint) * float64(n)) // far-field row
		s.T.RedundantFlops += float64(bc.FlopsCharPoint) * float64(s.ExtL+s.ExtR)
	}
}

// Diagnostics summarizes the slab state for validation and reporting.
type Diagnostics struct {
	Mass      float64 // integral of rho r dr dx over owned columns
	Energy    float64 // integral of E r dr dx
	MaxV      float64 // max |v| (excitation growth indicator)
	MinRho    float64
	MinP      float64
	HasNaN    bool
	OwnPoints int
}

// Diagnose computes conserved integrals and sanity indicators over the
// core points (a Wide policy's redundant shell is the neighbour's data,
// possibly decayed — it must not enter integrals or NaN checks).
func (s *Slab) Diagnose() Diagnostics {
	g := s.Grid
	gm := s.Gas
	c0, c1 := s.ExtL, s.NxLoc-s.ExtR
	j0, j1 := s.ExtB, s.NrLoc-s.ExtT
	d := Diagnostics{MinRho: math.Inf(1), MinP: math.Inf(1), OwnPoints: (c1 - c0) * (j1 - j0)}
	vol := g.Dx * g.Dr
	for c := c0; c < c1; c++ {
		rho, mx, mr, e := s.Q[flux.IRho].Col(c), s.Q[flux.IMx].Col(c), s.Q[flux.IMr].Col(c), s.Q[flux.IE].Col(c)
		for j := j0; j < j1; j++ {
			r := s.R[j]
			d.Mass += rho[j] * r * vol
			d.Energy += e[j] * r * vol
			v := mr[j] / rho[j]
			if a := math.Abs(v); a > d.MaxV {
				d.MaxV = a
			}
			p := gm.PressureFromConserved(rho[j], mx[j], mr[j], e[j])
			if rho[j] < d.MinRho {
				d.MinRho = rho[j]
			}
			if p < d.MinP {
				d.MinP = p
			}
			if math.IsNaN(rho[j]) || math.IsNaN(e[j]) || math.IsNaN(mx[j]) || math.IsNaN(mr[j]) {
				d.HasNaN = true
			}
		}
	}
	return d
}

// AxialMomentum extracts the rho*u field (the quantity contoured in the
// paper's Figure 1) for the owned columns. The column storage is a
// slab-owned buffer reused by subsequent calls: callers that need the
// snapshot to survive the next call must copy it.
func (s *Slab) AxialMomentum() [][]float64 {
	nx := s.NxLoc - s.ExtL - s.ExtR
	nr := s.NrLoc - s.ExtB - s.ExtT
	if cap(s.momBuf) < nx*nr {
		s.momBuf = make([]float64, nx*nr)
	}
	if cap(s.momOut) < nx {
		s.momOut = make([][]float64, nx)
	}
	out := s.momOut[:nx]
	for c := 0; c < nx; c++ {
		col := s.momBuf[c*nr : (c+1)*nr]
		copy(col, s.Q[flux.IMx].Col(s.ExtL + c)[s.ExtB:s.ExtB+nr])
		out[c] = col
	}
	return out
}
