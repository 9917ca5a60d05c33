package backend

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/decomp"
	"repro/internal/flux"
	"repro/internal/grid"
	"repro/internal/jet"
	"repro/internal/par"
	"repro/internal/shm"
	"repro/internal/solver"
)

// shapeRule says how a spatial backend decomposes the domain.
type shapeRule int

const (
	shapeNone  shapeRule = iota // one slab spanning the domain
	shapeAxial                  // Procs×1 rank grid (the paper's Section 5 split)
	shapeGrid                   // Px×Pr rank grid resolved from Procs/Px/Pr
)

// poolRule says which slabs sweep their column loops over a DOALL pool.
type poolRule int

const (
	poolNone    poolRule = iota
	poolProcs            // the single slab, over Procs workers (Cray Y-MP style)
	poolPerRank          // every rank's slab, over Workers workers each
)

// spatialBackend is every spatial backend name: one row of the table
// below, with Validate, Run and NewPropagator written once on top of
// it. Adding a backend is adding a row.
type spatialBackend struct {
	name string
	// version is the communication strategy the name runs; zero means
	// no message layer (serial, shm).
	version par.Version
	shape   shapeRule
	pool    poolRule
}

// spatialBackends is the backend table: every (engine, version) pair
// that runs has exactly one name. It is a literal, never written, so
// concurrent runs read it without a lock.
var spatialBackends = []spatialBackend{
	// The single-processor reference the paper measures in Figure 2.
	{name: "serial"},
	// Every column loop fork-joined across a persistent worker pool.
	{name: "shm", pool: poolProcs},
	// One goroutine per rank, halos through the PVM-like message layer;
	// the name selects the paper's strategy (grouped, overlapped, de-burst).
	{name: "mp:v5", version: par.V5, shape: shapeAxial},
	{name: "mp:v6", version: par.V6, shape: shapeAxial},
	{name: "mp:v7", version: par.V7, shape: shapeAxial},
	// The rank grid raises the axial split's Nx/MinWidth rank ceiling to
	// (Nx/MinWidth)*(Nr/MinHeight) and cuts the per-rank halo surface
	// from 2*Nr to 2*(Nr/pr + Nx/px). V7's de-burst axial flux messages
	// are not defined for it.
	{name: "mp2d", version: par.V5, shape: shapeGrid},
	{name: "mp2d:v6", version: par.V6, shape: shapeGrid},
	// Ranks × DOALL, the ranks-within-node × threads-per-rank layout.
	// Every kernel region is a loop over independent columns, so the
	// composition keeps bitwise reproducibility for any rank and worker
	// counts; under V6 each rank's interior core and edge frame are
	// themselves fork-joined over the pool.
	{name: "hybrid", version: par.V5, shape: shapeAxial, pool: poolPerRank},
	{name: "hybrid:v6", version: par.V6, shape: shapeAxial, pool: poolPerRank},
	{name: "hybrid:v7", version: par.V7, shape: shapeAxial, pool: poolPerRank},
}

func (b spatialBackend) Name() string { return b.name }

// plan is a validated request: everything Validate checks and the
// engine construction needs, resolved without building a slab or
// running the measured warm-up.
type plan struct {
	px, pr int // resolved rank grid; zero for a single slab
	prob   *solver.Problem
	ctl    solver.Control
}

// resolve is the one option check of every spatial name. What a name
// has no use for is an error, never a silent ignore — except Px/Pr,
// which only the grid shape reads.
func (b spatialBackend) resolve(cfg jet.Config, g *grid.Grid, o Options) (plan, error) {
	var p plan
	var err error
	if err := b.checkBalance(o); err != nil {
		return p, err
	}
	if b.shape == shapeNone {
		if o.Policy.Depth() > 1 {
			return p, fmt.Errorf("backend: %s runs a single slab with no rank halos; the %v policy requires a distributed backend", b.name, o.Policy)
		}
		if o.ReduceGroup > 1 {
			return p, fmt.Errorf("backend: %s has no rank collectives, reduce group %d does not apply", b.name, o.ReduceGroup)
		}
	}
	if p.prob, err = resolveProblem(cfg, g, o); err != nil {
		return p, err
	}
	if p.ctl, err = resolveControl(b.name, o); err != nil {
		return p, err
	}
	if b.shape == shapeNone {
		return p, nil
	}
	p.px, p.pr = o.procs(), 1
	if b.shape == shapeGrid {
		// Procs passes through raw: zero means "derive from the shape",
		// and a value contradicting an explicit shape is an error.
		if p.px, p.pr, err = (par.Options{Procs: o.Procs, Px: o.Px, Pr: o.Pr}).Shape(g); err != nil {
			return p, err
		}
	}
	// The runner's combiner construction repeats the group check
	// authoritatively; this is the early, probe-free one.
	if o.ReduceGroup < 0 {
		return p, fmt.Errorf("backend: %s: reduce group must be >= 1, got %d", b.name, o.ReduceGroup)
	}
	if o.ReduceGroup > p.px*p.pr {
		return p, fmt.Errorf("backend: %s: reduce group %d exceeds the %d ranks of the run", b.name, o.ReduceGroup, p.px*p.pr)
	}
	// A Wide policy's redundant shell must fit every block. The uniform
	// split has the widest narrowest block of any split, so passing here
	// is necessary for the runner's check of the weighted one.
	d, err := decomp.NewGrid2D(g.Nx, g.Nr, p.px, p.pr)
	if err != nil {
		return p, err
	}
	return p, par.WideFit(cfg.Viscous, o.Policy.Depth(), d)
}

// checkBalance is the probe-free balance check: the mode name, the
// explicit-profile conflict, and that a profile only reaches a name
// that decomposes that direction.
func (b spatialBackend) checkBalance(o Options) error {
	explicit := o.ColWeights != nil || o.RowWeights != nil
	if b.shape == shapeNone {
		if o.Balance != "" && o.Balance != BalanceUniform {
			return fmt.Errorf("backend: %s has no decomposition, balance mode %q does not apply", b.name, o.Balance)
		}
		if explicit {
			return fmt.Errorf("backend: %s has no decomposition, explicit cost profiles do not apply", b.name)
		}
		return nil
	}
	switch o.Balance {
	case "", BalanceUniform, BalanceFlops, BalanceMeasured:
	default:
		return fmt.Errorf("backend: unknown balance mode %q (have %q, %q, %q)",
			o.Balance, BalanceUniform, BalanceFlops, BalanceMeasured)
	}
	if explicit && o.Balance != "" {
		return fmt.Errorf("backend: %s: explicit ColWeights/RowWeights contradict Balance %q", b.name, o.Balance)
	}
	if o.RowWeights != nil && b.shape != shapeGrid {
		return fmt.Errorf("backend: %s decomposes columns only, a RowWeights profile does not apply", b.name)
	}
	return nil
}

// Validate checks opts without building the solver or running the
// measured warm-up.
func (b spatialBackend) Validate(cfg jet.Config, g *grid.Grid, o Options) error {
	_, err := b.resolve(cfg, g, o)
	return err
}

// runnerOptions maps a plan onto the rank-grid runner's options,
// resolving the balance request into per-column and — for the grid
// shape, which weights both directions — per-row profiles. The measured
// warm-up probes each direction at the resolved rank-grid resolution
// (px axial ranks, pr radial ranks), so a shape given as Px/Pr alone
// still measures at its real width.
func (b spatialBackend) runnerOptions(cfg jet.Config, g *grid.Grid, o Options, p plan) (par.Options, error) {
	ro := par.Options{
		Px:          p.px,
		Pr:          p.pr,
		Version:     b.version,
		Policy:      o.Policy,
		CFL:         o.CFL,
		ColWeights:  o.ColWeights,
		RowWeights:  o.RowWeights,
		Prob:        p.prob,
		ReduceGroup: o.ReduceGroup,
	}
	rows := b.shape == shapeGrid
	var err error
	switch o.Balance {
	case BalanceFlops:
		ro.ColWeights = solver.ColCostFlops(cfg, g)
		if rows {
			ro.RowWeights = solver.RowCostFlops(cfg, g)
		}
	case BalanceMeasured:
		ro.ColWeights, err = par.MeasuredColWeights(cfg, g, p.px, measuredProbeSteps)
		if err == nil && rows {
			ro.RowWeights, err = par.MeasuredRowWeights(cfg, g, p.pr, measuredProbeSteps)
		}
	}
	return ro, err
}

// engine is the one internal surface every spatial name runs on: a
// controlled one-shot march plus the advance/read-back surface of a
// Propagator. *par.Runner is the rank-grid engine; slabEngine the
// single-slab one.
type engine interface {
	RunControlled(n int, ctl solver.Control) *par.Result
	Advance(n int)
	StoreState(full *flux.State)
}

// slabEngine runs one slab spanning the domain — serial and shm. It is
// deliberately not a one-rank message world: the serial slab is the
// reference every parity sweep compares against. The slab's partial
// sums are already global, so convergence control needs no reduction.
type slabEngine struct {
	sl    *solver.Slab
	procs int
}

func (e slabEngine) RunControlled(n int, ctl solver.Control) *par.Result {
	start := time.Now()
	cr := e.sl.RunControlled(n, ctl, nil)
	return &par.Result{
		Steps:     cr.Steps,
		Procs:     e.procs,
		Dt:        e.sl.Dt,
		Elapsed:   time.Since(start),
		Converged: cr.Converged,
		Residuals: cr.Residuals,
		Diag:      e.sl.Diagnose(),
	}
}

func (e slabEngine) Advance(n int) {
	for i := 0; i < n; i++ {
		e.sl.Advance()
	}
}

func (e slabEngine) StoreState(full *flux.State) { e.sl.StoreState(full) }

// instance is a built engine plus the worker pools it owns. It is the
// Propagator of every spatial name, and what Run marches once.
type instance struct {
	engine
	pools   []*shm.Pool
	workers int // per-rank pool size (poolPerRank), 0 otherwise
}

func (in *instance) State(dst *flux.State) { in.StoreState(dst) }
func (in *instance) Close() {
	for _, p := range in.pools {
		p.Close()
	}
}

// poolSize is the DOALL pool of every pooled slab: Procs workers for
// the shm slab, and for each hybrid rank the explicit Workers or one
// worker per host CPU spread evenly over the ranks. Zero means no pool.
func (b spatialBackend) poolSize(o Options) int {
	switch b.pool {
	case poolProcs:
		return o.procs()
	case poolPerRank:
		if o.Workers >= 1 {
			return o.Workers
		}
		return max(1, runtime.NumCPU()/o.procs())
	}
	return 0
}

// width is the goroutines a run computes on: ranks (or the shm pool)
// times each rank's pool.
func (b spatialBackend) width(o Options) int {
	ranks := o.procs()
	if b.shape == shapeNone {
		ranks = 1
	}
	return ranks * max(1, b.poolSize(o))
}

// build constructs the engine of a validated request and attaches the
// descriptor's worker pools.
func (b spatialBackend) build(cfg jet.Config, g *grid.Grid, o Options, p plan) (*instance, error) {
	in := &instance{}
	poolSize := b.poolSize(o)
	if b.pool == poolPerRank {
		in.workers = poolSize
	}
	var slabs []*solver.Slab
	if b.shape == shapeNone {
		s, err := solver.NewSerialProblemCFL(cfg, p.prob, g, o.cfl())
		if err != nil {
			return nil, err
		}
		in.engine, slabs = slabEngine{sl: s.Slab, procs: max(1, poolSize)}, []*solver.Slab{s.Slab}
	} else {
		ro, err := b.runnerOptions(cfg, g, o, p)
		if err != nil {
			return nil, err
		}
		r, err := par.NewRunner(cfg, g, ro)
		if err != nil {
			return nil, err
		}
		in.engine, slabs = r, r.Slabs
	}
	if poolSize > 0 {
		for _, sl := range slabs {
			pool := shm.NewPool(poolSize)
			sl.Pool = pool
			in.pools = append(in.pools, pool)
		}
	}
	return in, nil
}

// Run is build → controlled march → stats → gather.
func (b spatialBackend) Run(cfg jet.Config, g *grid.Grid, o Options, steps int) (Result, error) {
	p, err := b.resolve(cfg, g, o)
	if err != nil {
		return Result{}, err
	}
	in, err := b.build(cfg, g, o, p)
	if err != nil {
		return Result{}, err
	}
	defer in.Close()
	pr := in.RunControlled(steps, p.ctl)
	fields := flux.NewState(g.Nx, g.Nr)
	in.StoreState(fields)
	res := Result{
		Backend:   b.name,
		Scenario:  o.scenario(),
		Procs:     pr.Procs,
		Workers:   in.workers,
		Steps:     pr.Steps,
		Dt:        pr.Dt,
		Converged: pr.Converged,
		Residuals: pr.Residuals,
		Elapsed:   pr.Elapsed,
		Diag:      pr.Diag,
		Comm:      pr.TotalComm(),
		CommDir:   pr.TotalDir(),
		PerRank:   pr.Ranks,
		Fields:    fields,
	}
	if b.shape == shapeGrid {
		res.Px, res.Pr = p.px, p.pr
	}
	return res, nil
}

// NewPropagator is the same build, handed out to be advanced on demand
// instead of marched once.
func (b spatialBackend) NewPropagator(cfg jet.Config, g *grid.Grid, o Options) (Propagator, error) {
	p, err := b.resolve(cfg, g, o)
	if err != nil {
		return nil, err
	}
	in, err := b.build(cfg, g, o, p)
	if err != nil {
		return nil, err // not a typed-nil Propagator
	}
	return in, nil
}
