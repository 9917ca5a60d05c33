// Package core is the public face of the reproduction: one entry point
// to (a) the parallel Navier-Stokes/Euler jet solver — the paper's
// application — on any execution backend of internal/backend, and (b)
// the architectural study that replays the paper's evaluation on
// simulated 1995 platforms.
//
// Quick start:
//
//	run, err := core.NewRun(core.Config{Nx: 125, Nr: 50, Steps: 200})
//	res, err := run.Execute()
//
// Backends are selected by name from the backend table ("serial", "shm",
// "mp:v5", "mp:v6", "mp:v7", "mp2d", "mp2d:v6", "hybrid", "hybrid:v6",
// "hybrid:v7"); the name alone selects the communication version.
// See examples/ for complete programs and DESIGN.md for the system
// inventory.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/grid"
	"repro/internal/jet"
	"repro/internal/par"
	"repro/internal/scenario"
	"repro/internal/solver"
	"repro/internal/trace"
)

// Config describes one solver run. Zero values select the paper's
// defaults (Navier-Stokes, grid 250x100, the serial backend, Lagged
// halos).
type Config struct {
	// Scenario names the flow problem in the internal/scenario table
	// ("jet", "cavity", "channel"). Empty selects the jet. The scenario
	// supplies the domain geometry (so Nx/Nr keep their meaning as
	// resolution, but the physical extents are the scenario's) and, for
	// the wall-bounded scenarios, pins the physical configuration —
	// Euler and Jet apply to the jet scenario only.
	Scenario string
	// Euler selects the inviscid equations (default: Navier-Stokes).
	Euler bool
	// Nx, Nr: grid size (default 250x100, the paper's grid).
	Nx, Nr int
	// Steps: composite time steps (default 5000, the paper's runs).
	Steps int
	// Backend names the execution backend in the internal/backend
	// table ("serial", "shm", "mp:v5", "mp:v6", "mp:v7", "mp2d",
	// "mp2d:v6", "hybrid", "hybrid:v6", "hybrid:v7"). The name alone
	// selects the communication strategy (Version 5, 6 or 7; mp2d and
	// hybrid run Version 5). Empty selects "serial".
	Backend string
	// Procs: ranks of the distributed backends, or workers of shm.
	Procs int
	// Workers: per-rank DOALL pool size (hybrid backend only; 0 picks a
	// host-derived default).
	Workers int
	// Px, Pr: rank-grid shape of the mp2d backend (axial × radial).
	// Zero picks the surface-minimizing shape for Procs ranks.
	Px, Pr int
	// Balance selects the decomposition cost model of the distributed
	// backends: "uniform" (default, balanced point counts), "flops"
	// (analytic per-column/per-row FLOP profile), or "measured" (a
	// one-step warm-up run whose busy times become the profile). Load
	// balancing changes which points a rank owns, never the numerics.
	Balance string
	// FreshHalos selects the exact-halo policy (bitwise serial
	// equivalence) instead of the paper's lagged message budget.
	FreshHalos bool
	// HaloDepth, when >= 1, selects the communication-avoiding
	// Wide(HaloDepth) halo policy: ranks carry a redundant ghost shell
	// and exchange every HaloDepth-th step instead of every stage,
	// trading redundant compute for message startups while staying
	// bitwise-identical to serial. HaloDepth 1 is exactly the Fresh
	// policy, so it composes with FreshHalos; HaloDepth > 1 together
	// with FreshHalos is a contradiction (the wide cadence is not the
	// per-stage exact policy) and Canonical rejects it. Zero leaves the
	// FreshHalos choice in force; negative values are an error.
	// Distributed backends only.
	HaloDepth int
	// ReduceGroup, when > 1, makes the distributed backends' allreduce
	// hierarchical (intra-node combine, leaders-only cross-node plan).
	// 0 or 1 keeps the flat plan.
	ReduceGroup int
	// StopTol, when positive, makes the run convergence-controlled:
	// it stops at the first monitored step whose global L2 residual
	// (RMS rate of change of the conserved state) falls to the
	// tolerance, instead of marching the fixed Steps count — the
	// paper's runs march to a converged state, not to a step budget.
	// Result.Steps then reports the steps actually run.
	StopTol float64
	// ReduceEvery is the residual-monitoring cadence in composite
	// steps: the global reduction (residual sum + CFL-stable dt max)
	// runs every ReduceEvery-th step, amortizing the collective. Zero
	// means every step when StopTol is set, no monitoring otherwise.
	ReduceEvery int
	// SteadyTol, when positive, makes the run convergence-controlled on
	// velocity steadiness instead of the L2 residual: it stops at the
	// first monitored step where the global max of |Δu|/dt, |Δv|/dt
	// over core points falls to the tolerance — the closed-flow
	// criterion of the cavity scenario, where the residual never
	// vanishes. Mutually exclusive with StopTol.
	SteadyTol float64
	// Jet overrides the physical configuration (default jet.Paper()).
	Jet *jet.Config
}

// withDefaults fills zero values — the one place "empty" is given its
// meaning (the serial backend, the jet scenario, the paper's grid).
func (c Config) withDefaults() Config {
	if c.Backend == "" {
		c.Backend = "serial"
	}
	if c.Scenario == "" {
		c.Scenario = "jet"
	}
	if c.Nx == 0 {
		c.Nx = 250
	}
	if c.Nr == 0 {
		c.Nr = 100
	}
	if c.Steps == 0 {
		c.Steps = 5000
	}
	if c.Procs == 0 && c.Px > 0 && c.Pr > 0 {
		// An explicit rank-grid shape defines the width; an explicit
		// Procs that contradicts it is rejected downstream.
		c.Procs = c.Px * c.Pr
	}
	if c.Procs == 0 {
		c.Procs = 1
	}
	return c
}

// jetConfig resolves the base physical configuration. The scenario has
// the final word: the jet honors this unchanged, the wall-bounded
// scenarios replace it with their pinned parameter sets.
func (c Config) jetConfig() jet.Config {
	if c.Jet != nil {
		return *c.Jet
	}
	if c.Euler {
		return jet.Euler()
	}
	return jet.Paper()
}

// Canonical returns the normalized form of c: every alias spelling of
// the same run maps onto one configuration. It is the only fold of a
// run description — NewRun builds the run from it and the config-hash
// result cache (internal/serve) keys on it, so a spelling means the
// same run to every front end. Normalized here:
//
//   - zero-value defaults (grid, steps, procs) are filled in;
//   - the empty Backend is named ("serial");
//   - scenario expansion: the default scenario is named, and Jet is
//     resolved to the physical configuration the scenario actually runs
//     (the wall-bounded scenarios pin their own physics, so a cavity
//     run spelled with -euler is the same cavity run; on the jet, Euler
//     together with a viscous Jet is a contradiction);
//   - policy aliasing: HaloDepth 1 is exactly FreshHalos, ReduceGroup 1
//     is the flat plan, empty Balance is "uniform", and a tolerance
//     (StopTol or SteadyTol) with no cadence monitors every step;
//   - serial runs one slab whatever width was requested.
//
// The normalization is deliberately syntactic: equivalences it cannot
// see (a zero Workers resolving to the host default) stay distinct
// keys, which costs a cache hit but never aliases two different runs
// together. Contradictions between fields are errors here; what only a
// backend or scenario can judge (unknown names, an option a backend
// has no use for, a decomposition that does not fit) is rejected by
// NewRun.
func (c Config) Canonical() (Config, error) {
	if c.Procs == 0 && (c.Px > 0) != (c.Pr > 0) {
		// A half-specified rank grid with no total width has no
		// defensible resolution: refusing beats silently collapsing
		// the run to one rank.
		return Config{}, fmt.Errorf("core: half-specified rank grid (Px=%d, Pr=%d) with Procs unset; set both axes, or one axis plus Procs", c.Px, c.Pr)
	}
	c = c.withDefaults()
	sc, err := scenario.Get(c.Scenario)
	if err != nil {
		return Config{}, err
	}
	phys := sc.Config(c.jetConfig())
	if c.Euler && c.Jet != nil && c.Jet.Viscous {
		// Where the scenario runs the caller's viscosity (the jet), one
		// half of the request would silently lose; a scenario that pins
		// its own physics folds Euler away below.
		inviscid := *c.Jet
		inviscid.Viscous = false
		if sc.Config(inviscid) != phys {
			return Config{}, fmt.Errorf("core: Euler contradicts the viscous Jet configuration of the %s scenario; set Jet.Viscous false or drop Euler", c.Scenario)
		}
	}
	c.Jet = &phys
	c.Euler = !phys.Viscous
	if c.Backend == "serial" {
		c.Procs, c.Workers = 1, 0
	}
	if c.HaloDepth < 0 {
		return Config{}, fmt.Errorf("core: halo depth must be >= 1, got %d", c.HaloDepth)
	}
	if c.HaloDepth > 1 && c.FreshHalos {
		return Config{}, fmt.Errorf("core: HaloDepth %d (exchange every %d-th step) contradicts FreshHalos (per-stage exact exchange); set one of them", c.HaloDepth, c.HaloDepth)
	}
	if c.HaloDepth == 1 {
		c.HaloDepth, c.FreshHalos = 0, true
	}
	if c.ReduceGroup == 1 {
		c.ReduceGroup = 0
	}
	if c.Balance == "" {
		c.Balance = backend.BalanceUniform
	}
	if c.StopTol > 0 && c.SteadyTol > 0 {
		return Config{}, fmt.Errorf("core: StopTol and SteadyTol are mutually exclusive convergence criteria; set one")
	}
	if (c.StopTol > 0 || c.SteadyTol > 0) && c.ReduceEvery == 0 {
		c.ReduceEvery = 1
	}
	return c, nil
}

// options translates a canonical config into the backend layer's
// options — the one place the two spellings meet.
func (c Config) options() backend.Options {
	policy := solver.Lagged
	switch {
	case c.HaloDepth > 1:
		policy = solver.Wide(c.HaloDepth)
	case c.FreshHalos:
		policy = solver.Fresh
	}
	return backend.Options{
		Scenario:    c.Scenario,
		Procs:       c.Procs,
		Workers:     c.Workers,
		Px:          c.Px,
		Pr:          c.Pr,
		Policy:      policy,
		Balance:     c.Balance,
		StopTol:     c.StopTol,
		SteadyTol:   c.SteadyTol,
		ReduceEvery: c.ReduceEvery,
		ReduceGroup: c.ReduceGroup,
	}
}

// Result reports a completed run.
type Result struct {
	Backend string
	// Scenario is the flow problem that ran ("jet" by default).
	Scenario string
	Procs    int
	Px, Pr   int // rank-grid shape (mp2d, mp2d:v6), 0 otherwise
	// Steps is the number of composite steps actually run — fewer
	// than Config.Steps when StopTol stopped the run early.
	Steps int
	Dt    float64
	// Converged reports an early stop on StopTol/SteadyTol; Residuals
	// is the monitored convergence history (step, L2 residual or
	// steadiness rate).
	Converged bool
	Residuals []solver.ResidualPoint
	Elapsed   time.Duration
	Diag      solver.Diagnostics
	Comm      trace.Counters    // aggregate communication (zero for a single slab)
	CommDir   trace.DirCounters // Comm split by exchange class (axial, radial, reductions)
	PerRank   []par.RankStats   // per-rank profile (nil for a single slab)
	Momentum  [][]float64       // axial momentum field rho*u
}

// Run lifecycle states (Run.state).
const (
	runReady = iota
	runExecuted
	runClosed
)

// Lifecycle errors of Run.Execute. Both satisfy errors.Is.
var (
	// ErrRunConsumed reports a second Execute on the same Run: a Run is
	// one-shot, build a fresh one with NewRun (construction is cheap —
	// the heavy state lives inside Execute).
	ErrRunConsumed = errors.New("core: run already executed; a Run is one-shot, build a new one with NewRun")
	// ErrRunClosed reports Execute after Close.
	ErrRunClosed = errors.New("core: run closed")
)

// Run is a configured solver run bound to a named backend. A Run is
// one-shot: the first Execute performs the run, any later (or
// concurrently racing) Execute fails with ErrRunConsumed — re-running
// silently on the same options was never defined behavior, and a
// serving process must be able to treat a Run as a consumable job.
type Run struct {
	// cfg is canonical: cfg.Jet is the scenario-resolved physical
	// configuration the backend actually runs.
	cfg  Config
	grid *grid.Grid
	be   backend.Backend
	opts backend.Options
	// state is the lifecycle latch (runReady → runExecuted/runClosed);
	// atomic so exactly one of concurrently racing Execute calls wins.
	state atomic.Uint32
}

// NewRun canonicalizes the configuration, resolves the scenario grid
// and the backend from their tables, and checks the run against the
// backend (decomposition included). Every spelling Canonical folds
// together is therefore the same Run, and every rejection originates in
// Canonical, a table lookup, or the backend's Validate.
func NewRun(c Config) (*Run, error) {
	c, err := c.Canonical()
	if err != nil {
		return nil, err
	}
	sc, err := scenario.Get(c.Scenario)
	if err != nil {
		return nil, err
	}
	g, err := sharedGrid(sc, c.Scenario, c.Nx, c.Nr)
	if err != nil {
		return nil, err
	}
	be, err := backend.Get(c.Backend)
	if err != nil {
		return nil, err
	}
	opts := c.options()
	if err := be.Validate(*c.Jet, g, opts); err != nil {
		return nil, err
	}
	return &Run{cfg: c, grid: g, be: be, opts: opts}, nil
}

// gridCache shares one immutable *grid.Grid per (scenario, nx, nr)
// across all Runs: grid.Grid is read-only after construction (the
// package documents it as "an immutable description"), so concurrent
// runs of the same scenario and resolution can — and in a serving
// process with thousands of queued sweep points, should — read the
// same metric arrays instead of each holding a private copy.
var gridCache = struct {
	sync.RWMutex
	m map[gridKey]*grid.Grid
}{m: map[gridKey]*grid.Grid{}}

type gridKey struct {
	scenario string
	nx, nr   int
}

// sharedGrid resolves the scenario's grid through the cache. Errors are
// not cached: a resolution the scenario rejects is rejected again on
// the next request (cheap, and keeps the cache all-valid).
func sharedGrid(sc scenario.Scenario, name string, nx, nr int) (*grid.Grid, error) {
	k := gridKey{scenario: name, nx: nx, nr: nr}
	gridCache.RLock()
	g, ok := gridCache.m[k]
	gridCache.RUnlock()
	if ok {
		return g, nil
	}
	g, err := sc.Grid(nx, nr)
	if err != nil {
		return nil, err
	}
	gridCache.Lock()
	defer gridCache.Unlock()
	if cached, ok := gridCache.m[k]; ok {
		// A racing builder won; every Run of this resolution must see
		// the same pointer, so prefer the cached one.
		return cached, nil
	}
	gridCache.m[k] = g
	return g, nil
}

// Grid returns the computational grid. Grids are shared across Runs of
// the same scenario and resolution — treat them as immutable.
func (r *Run) Grid() *grid.Grid { return r.grid }

// Backend returns the resolved execution backend.
func (r *Run) Backend() backend.Backend { return r.be }

// Execute advances the configured number of steps and reports. It
// consumes the Run: a second call — sequential or concurrently racing —
// fails with ErrRunConsumed (ErrRunClosed after Close) instead of
// silently re-running on the same options. Distinct Runs execute
// concurrently and independently; their shared inputs (the backend and
// scenario tables, the grid cache) are immutable or lock-guarded.
func (r *Run) Execute() (*Result, error) {
	if !r.state.CompareAndSwap(runReady, runExecuted) {
		if r.state.Load() == runClosed {
			return nil, ErrRunClosed
		}
		return nil, ErrRunConsumed
	}
	br, err := r.be.Run(*r.cfg.Jet, r.grid, r.opts, r.cfg.Steps)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Backend:   br.Backend,
		Scenario:  br.Scenario,
		Procs:     br.Procs,
		Px:        br.Px,
		Pr:        br.Pr,
		Steps:     br.Steps,
		Dt:        br.Dt,
		Converged: br.Converged,
		Residuals: br.Residuals,
		Elapsed:   br.Elapsed,
		Diag:      br.Diag,
		Comm:      br.Comm,
		CommDir:   br.CommDir,
		PerRank:   br.PerRank,
		Momentum:  br.Momentum(),
	}
	if res.Diag.HasNaN {
		return res, fmt.Errorf("core: run diverged (NaN after %d steps)", br.Steps)
	}
	return res, nil
}

// Close marks the run finished. Backends release their worker pools at
// the end of Run, so there is nothing to free — but Close latches the
// lifecycle: a later Execute fails with ErrRunClosed instead of
// starting a solver on a run the caller already abandoned. Closing an
// executed (or already closed) run is a harmless no-op.
func (r *Run) Close() { r.state.Store(runClosed) }
