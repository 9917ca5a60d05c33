// Package backend is the unified solver-backend layer: one interface
// over every execution style of the reproduction, selected by name
// from one table. The paper's whole point is running the *same*
// Navier-Stokes computation across a variety of architectural
// platforms; this package makes that literal — callers pick a backend
// by name and get bitwise-identical physics however the sweeps are
// scheduled.
//
// The ten spatial names are rows of one literal table (spatial.go): a
// row names the one communication version it runs, how it shapes the
// rank grid, and which slabs get a DOALL pool. Validate, Run and
// NewPropagator are written once on top of the table, over one engine
// surface — a single slab for serial and shm, the rank-grid runner of
// internal/par for the rest. Adding a spatial backend is adding a row.
//
//	name       version  shape     pool
//	serial     —        one slab  —
//	shm        —        one slab  Procs workers (Cray Y-MP DOALL)
//	mp:v5      5        Procs×1   —        grouped two-column halo messages
//	mp:v6      6        Procs×1   —        communication/computation overlap
//	mp:v7      7        Procs×1   —        de-burst one-column flux messages
//	mp2d       5        Px×Pr     —        ghost columns plus ghost rows
//	mp2d:v6    6        Px×Pr     —        overlap in both directions
//	hybrid     5        Procs×1   Workers per rank (ranks × DOALL)
//	hybrid:v6  6        Procs×1   Workers per rank
//	hybrid:v7  7        Procs×1   Workers per rank
//
// The name is the whole communication-strategy selection.
//
// A name rejects every option it has no use for — a balance mode or
// cost profile without a decomposition to apply it to, a Wide policy or
// reduce group without ranks — never a silent downgrade. Options.Balance
// (uniform point counts, the analytic flops profile, or a measured
// warm-up) changes block shapes, never numerics.
//
// All backends run the identical slab engine of internal/solver, so
// under the Fresh halo policy every backend reproduces the serial
// arithmetic bitwise (asserted by TestBackendParity).
package backend

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/flux"
	"repro/internal/grid"
	"repro/internal/jet"
	"repro/internal/par"
	"repro/internal/scenario"
	"repro/internal/solver"
	"repro/internal/trace"
)

// Options configures a backend run. The zero value selects one rank /
// worker, the Lagged halo policy (the paper's message budget), and the
// default CFL number.
type Options struct {
	// Scenario names the registered flow problem (internal/scenario)
	// whose boundary conditions and initial state the slabs run. Empty
	// means "jet", the excited jet of the paper. The caller is
	// responsible for passing a cfg and grid consistent with the
	// scenario (core.NewRun resolves both through the same table);
	// scenarios validate what they can (the cavity rejects a grid
	// without its radial offset).
	Scenario string
	// Procs is the number of ranks or, for shm, DOALL workers. The
	// serial backend ignores it. Zero means 1.
	Procs int
	// Workers is the per-rank DOALL pool size of the hybrid backend.
	// Zero picks a host-derived default (NumCPU/Procs, at least 1).
	Workers int
	// Px, Pr select the rank-grid shape of the mp2d backends (axial ×
	// radial). Both zero picks the surface-minimizing near-square shape
	// for Procs ranks; one of them set derives the other from Procs.
	// The other names fix their shape (one slab, or Procs×1) and ignore
	// them.
	Px, Pr int
	// Policy selects the halo treatment of the distributed backends:
	// Lagged matches the paper's Table 1 message budget, Fresh
	// reproduces the serial arithmetic bitwise.
	Policy solver.HaloPolicy
	// CFL overrides the Courant number (0 = solver.DefaultCFL).
	CFL float64
	// Balance selects the decomposition cost model of the distributed
	// backends: BalanceUniform (default) balances point counts,
	// BalanceFlops the analytic per-column/per-row FLOP profile
	// (boundary work included), BalanceMeasured a one-step warm-up run
	// whose busy times become the profile. Whatever the mode, blocks
	// change shape only — the physics stays bitwise-identical to serial
	// under the Fresh policy. serial and shm have no decomposition and
	// reject any non-uniform request.
	Balance string
	// ColWeights/RowWeights inject an explicit cost profile directly
	// (library callers and tests); they require Balance to be empty —
	// naming a mode and injecting a profile at the same time is an
	// error, never a silent pick. RowWeights applies only to the
	// row-decomposing mp2d backends; the axial-only backends reject it
	// rather than ignore it.
	ColWeights []float64
	RowWeights []float64
	// StopTol, when positive, turns the run into a convergence-
	// controlled one: it stops at the first monitored step whose
	// global L2 residual (RMS rate of change of the conserved state)
	// is at or below the tolerance, instead of marching the full step
	// count. Every backend honors it — distributed backends combine
	// per-slab partials through the allocation-free allreduce of
	// internal/par — and under the Fresh policy every backend stops on
	// the same step with bitwise-identical fields. (One caveat: the
	// residual is a tree sum whose grouping follows the decomposition,
	// so decompositions can disagree by ~1 ulp; a tolerance placed
	// within that margin of a monitored residual could stop one
	// backend a cadence later than another.)
	StopTol float64
	// ReduceEvery is the monitoring cadence in composite steps: the
	// residual sum and the global-dt max-reduction run every
	// ReduceEvery-th step, amortizing the collective. Zero means every
	// step when StopTol is set, and no monitoring at all otherwise.
	// Monitored runs also refresh the global CFL-stable dt from the
	// max-reduction at the same cadence.
	ReduceEvery int
	// ReduceGroup, when > 1, makes the distributed backends' allreduce
	// hierarchical: ranks combine within contiguous shared-memory nodes
	// of this size first, and only node leaders run the cross-node
	// recursive-doubling plan. The result stays bitwise-identical on
	// every rank. 0 or 1 keeps the flat plan; serial and shm have no
	// rank collectives and reject any hierarchical request.
	ReduceGroup int
	// SteadyTol, when positive, stops a monitored run on the velocity-
	// steadiness rate (max pointwise |du|,|dv| per unit time) instead of
	// the L2 residual — the criterion closed wall-driven scenarios need
	// (scenario.ConvergeSteadiness). Mutually exclusive with StopTol.
	SteadyTol float64
}

// Balance modes of Options.Balance.
const (
	BalanceUniform  = "uniform"
	BalanceFlops    = "flops"
	BalanceMeasured = "measured"
)

// measuredProbeSteps is the warm-up length of the measured balance
// mode: one composite step resolves the per-rank busy skew without
// noticeably delaying the run it balances.
const measuredProbeSteps = 1

// resolveControl maps the convergence-control request onto the
// solver's Control, rejecting nonsense values. Every backend supports
// convergence control (a serial slab's partial sums are already
// global), so unlike balance modes there is nothing to reject per
// backend — only to validate.
func resolveControl(name string, o Options) (solver.Control, error) {
	if o.StopTol < 0 {
		return solver.Control{}, fmt.Errorf("backend: %s: negative stop tolerance %g", name, o.StopTol)
	}
	if o.SteadyTol < 0 {
		return solver.Control{}, fmt.Errorf("backend: %s: negative steadiness tolerance %g", name, o.SteadyTol)
	}
	if o.StopTol > 0 && o.SteadyTol > 0 {
		return solver.Control{}, fmt.Errorf("backend: %s: StopTol and SteadyTol are exclusive convergence criteria; set one", name)
	}
	if o.ReduceEvery < 0 {
		return solver.Control{}, fmt.Errorf("backend: %s: negative reduction cadence %d", name, o.ReduceEvery)
	}
	return solver.Control{StopTol: o.StopTol, SteadyTol: o.SteadyTol, ReduceEvery: o.ReduceEvery, CFL: o.cfl()}, nil
}

// scenario resolves the scenario tag ("" means the built-in jet).
func (o Options) scenario() string {
	if o.Scenario == "" {
		return "jet"
	}
	return o.Scenario
}

// resolveProblem maps Options.Scenario onto the solver problem every
// slab runs, always through the scenario table: the empty string is
// the "jet" row (whose zero-valued Problem takes the built-in
// boundary paths), an unknown name surfaces the available list, and the
// scenario validates cfg and grid.
func resolveProblem(cfg jet.Config, g *grid.Grid, o Options) (*solver.Problem, error) {
	sc, err := scenario.Get(o.scenario())
	if err != nil {
		return nil, err
	}
	return sc.Problem(cfg, g)
}

// cfl resolves the Courant number.
func (o Options) cfl() float64 {
	if o.CFL == 0 {
		return solver.DefaultCFL
	}
	return o.CFL
}

// procs resolves the parallel width.
func (o Options) procs() int {
	if o.Procs < 1 {
		return 1
	}
	return o.Procs
}

// Result reports a completed backend run.
type Result struct {
	Backend string
	// Scenario is the flow problem the run solved ("jet" when Options
	// left it unset).
	Scenario string
	Procs    int // ranks, or workers (shm); 1 for serial
	Workers  int // per-rank DOALL workers (hybrid), 0 otherwise
	// Steps is the number of composite steps actually run — fewer
	// than requested when StopTol stopped the run early.
	Steps int
	Dt    float64
	// Converged reports that the run stopped on StopTol; Residuals is
	// the monitored convergence history (empty without monitoring).
	Converged bool
	Residuals []solver.ResidualPoint
	Elapsed   time.Duration
	Diag      solver.Diagnostics
	// Px, Pr is the rank-grid shape of the names that take one (mp2d,
	// mp2d:v6); 0 for the single-slab and axial names.
	Px, Pr int
	// Comm aggregates the message-layer counters (zero for a single slab).
	Comm trace.Counters
	// CommDir splits Comm by exchange class; Radial is nonzero only
	// when the rank grid has Pr > 1.
	CommDir trace.DirCounters
	// PerRank is the per-rank execution profile (nil for a single slab).
	PerRank []par.RankStats
	// Fields is the gathered full-domain conserved state (interior
	// values), the basis for cross-backend parity checks.
	Fields *flux.State
}

// Momentum extracts the axial momentum field rho*u (the quantity
// contoured in the paper's Figure 1) from the gathered state.
func (r *Result) Momentum() [][]float64 {
	nx := r.Fields[flux.IMx].Nx
	nr := r.Fields[flux.IMx].Nr
	flat := make([]float64, nx*nr)
	out := make([][]float64, nx)
	for i := 0; i < nx; i++ {
		col := flat[i*nr : (i+1)*nr]
		copy(col, r.Fields[flux.IMx].Col(i))
		out[i] = col
	}
	return out
}

// Backend is one execution style of the solver. Validate is a cheap
// configuration check without building the solver (core.NewRun uses it
// to fail early on, e.g., a decomposition with slabs below the stencil
// width). Run is one-shot: it builds the solver configuration, advances
// the given number of composite steps, releases any worker pools, and
// reports. NewPropagator is the same build, handed out as a steppable
// solver instead of marched once.
type Backend interface {
	Name() string
	Validate(cfg jet.Config, g *grid.Grid, opts Options) error
	Run(cfg jet.Config, g *grid.Grid, opts Options, steps int) (Result, error)
	NewPropagator(cfg jet.Config, g *grid.Grid, opts Options) (Propagator, error)
}

// Propagator is a built backend that advances on demand: the probe
// surface for timing one backend's step loop apart from its setup and
// gather.
type Propagator interface {
	// Advance runs n composite steps at the fixed dt, no monitoring.
	Advance(n int)
	// State gathers the current global conservative state into dst.
	State(dst *flux.State)
	// Close releases worker pools; the propagator is dead afterwards.
	Close()
}

// NewPropagator builds b's solver as a Propagator.
func NewPropagator(b Backend, cfg jet.Config, g *grid.Grid, opts Options) (Propagator, error) {
	return b.NewPropagator(cfg, g, opts)
}

// Get resolves a backend by name. The error lists the backend names so
// callers can surface it directly as CLI help text.
func Get(name string) (Backend, error) {
	for _, b := range spatialBackends {
		if b.name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("backend: unknown backend %q (have %v)", name, Names())
}

// Names returns the backend names, sorted.
func Names() []string {
	names := make([]string, len(spatialBackends))
	for i, b := range spatialBackends {
		names[i] = b.name
	}
	slices.Sort(names)
	return names
}

// Width is the number of goroutines a run of the named backend computes
// on: its ranks (or shm workers) times each rank's DOALL workers, the
// host default included. Admission control packs runs by it.
func Width(name string, o Options) (int, error) {
	b, err := Get(name)
	if err != nil {
		return 0, err
	}
	return b.(spatialBackend).width(o), nil
}
