package backend

import (
	"fmt"

	"repro/internal/flux"
	"repro/internal/grid"
	"repro/internal/jet"
)

// Propagator is the Parareal view of a spatial backend: a solver that
// can be seeded with an arbitrary mid-trajectory state, advanced a
// fixed number of composite steps at its fixed dt, and read back — all
// repeatably, so one propagator serves every correction iteration of
// its time slice. Construction fixes the time step from the t=0 initial
// condition (every backend computes the identical global CFL dt, the
// parity invariant the backend sweep pins), so a restarted propagation
// is bitwise-identical to the corresponding span of a continuous run.
type Propagator interface {
	// Seed loads the global conservative state and positions the clock
	// at composite step `step` (time = step*Dt()).
	Seed(state *flux.State, step int)
	// Advance runs n composite steps at the fixed dt, no monitoring.
	Advance(n int)
	// State gathers the current global conservative state into dst.
	State(dst *flux.State)
	// Dt returns the fixed composite time step.
	Dt() float64
	// Close releases worker pools; the propagator is dead afterwards.
	Close()
}

// propagatorProvider is an optional Backend extension (like validator):
// backends that can serve as Parareal fine propagators construct one
// here. The options arrive with parallel-in-time and convergence-control
// fields already cleared by the coordinator.
type propagatorProvider interface {
	NewPropagator(cfg jet.Config, g *grid.Grid, opts Options) (Propagator, error)
}

// NewPropagator builds a fine propagator from a registered backend, or
// reports that the backend cannot serve as one.
func NewPropagator(b Backend, cfg jet.Config, g *grid.Grid, opts Options) (Propagator, error) {
	p, ok := b.(propagatorProvider)
	if !ok {
		return nil, fmt.Errorf("backend: %s cannot serve as a parareal fine propagator", b.Name())
	}
	return p.NewPropagator(cfg, g, opts)
}
