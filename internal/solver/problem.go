package solver

import (
	"repro/internal/bc"
	"repro/internal/flux"
	"repro/internal/gas"
	"repro/internal/jet"
)

// WallSpec marks which physical domain sides are solid no-slip walls.
// Non-wall sides keep the jet's boundary treatment: eigenfunction
// inflow (left), characteristic outflow (right), axis mirror (bottom),
// far-field characteristics (top). The zero value is therefore the
// built-in jet configuration.
type WallSpec struct {
	Left, Right, Bottom, Top bool
	// ULid is the tangential (+x) speed of the Top wall — the moving
	// lid of the cavity scenario. Ignored unless Top is set.
	ULid float64
}

// Any reports whether any side is a wall.
func (w WallSpec) Any() bool { return w.Left || w.Right || w.Bottom || w.Top }

// Problem binds a flow scenario's boundary conditions and initial state
// to the slab engine. The zero value (and a nil *Problem) reproduces
// the built-in excited jet bitwise: the registered jet scenario passes
// the zero value, direct solver/par callers may pass nil.
type Problem struct {
	Name string
	// Inflow builds the left-boundary Dirichlet source. nil with
	// Wall.Left unset selects the jet eigenfunction profile.
	Inflow func(cfg jet.Config, gm gas.Model, r []float64) bc.Source
	// Init gives the initial primitive state at a grid point (x, r);
	// nil selects the jet's parallel mean flow.
	Init func(cfg jet.Config, gm gas.Model, x, r float64) gas.Primitive
	Wall WallSpec
}

// Walls returns the wall specification; safe on a nil receiver.
func (p *Problem) Walls() WallSpec {
	if p == nil {
		return WallSpec{}
	}
	return p.Wall
}

// wallColumn pins the no-slip wall state on local column c of q: both
// momentum components are zeroed while density and internal energy keep
// the values the interior scheme produced, so the wall pressure evolves
// with the flow (the mirror ghosts make the normal pressure gradient
// vanish discretely).
func (s *Slab) wallColumn(q *flux.State, c int) {
	rho := q[flux.IRho].Col(c)
	n := len(rho)
	mx, mr, e := q[flux.IMx].Col(c)[:n], q[flux.IMr].Col(c)[:n], q[flux.IE].Col(c)[:n]
	for j := range rho {
		e[j] -= 0.5 * (mx[j]*mx[j] + mr[j]*mr[j]) / rho[j]
		mx[j] = 0
		mr[j] = 0
	}
}
