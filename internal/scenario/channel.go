package scenario

import (
	"repro/internal/bc"
	"repro/internal/gas"
	"repro/internal/grid"
	"repro/internal/jet"
	"repro/internal/solver"
)

// channelScenario is laminar developing pipe flow: a steady parabolic
// Poiseuille profile enters on the left, the right boundary keeps the
// jet's characteristic outflow, the bottom is the symmetry axis, and
// the top is a stationary no-slip wall. It exercises the inflow–outflow
// composition with a wall — the one pairing neither the jet (no walls)
// nor the cavity (no inflow) covers.
type channelScenario struct{}

func (channelScenario) Name() string { return "channel" }

func (channelScenario) Describe() string {
	return "inflow-outflow pipe flow with a no-slip outer wall"
}

// Config pins the channel's parameter set and ignores base. MachCenter
// 0.5 keeps the characteristic outflow firmly subsonic; Reynolds 1000
// under jet.Config's diameter-2 normalization gives mu = 1e-3, viscous
// enough that the wall boundary layer grows visibly over the domain.
func (channelScenario) Config(jet.Config) jet.Config {
	return jet.Config{
		MachCenter: 0.5, // centerline (axis) Mach number
		TempRatio:  1,
		Theta:      0.125, // unused (no shear-layer profile); kept valid
		Strouhal:   0.125, // unused (no excitation)
		Eps:        0,
		UCoflow:    0,
		Reynolds:   1000,
		Viscous:    true,
	}
}

// Grid is a pipe of length 10 and radius 1: the axis at r=0, the wall
// plane at r=1 half a cell beyond the last staggered row.
func (channelScenario) Grid(nx, nr int) (*grid.Grid, error) {
	return grid.New(nx, nr, 10, 1)
}

// poiseuille evaluates the inflow profile u(r) = Umax*(1 - (r/Lr)^2).
func poiseuille(cfg jet.Config, gm gas.Model, r, lr float64) gas.Primitive {
	s := r / lr
	return gas.Primitive{
		Rho: 1,
		U:   cfg.UCenter() * (1 - s*s),
		V:   0,
		P:   gm.AmbientPressure(),
	}
}

// channelSource is a time-independent Dirichlet inflow column
// implementing bc.Source.
type channelSource struct{ col []gas.Primitive }

func (s channelSource) Column(_ float64, out []gas.Primitive) { copy(out, s.col) }

func (channelScenario) Problem(cfg jet.Config, g *grid.Grid) (*solver.Problem, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lr := g.Lr
	return &solver.Problem{
		Name: "channel",
		Wall: solver.WallSpec{Top: true}, // stationary outer wall (ULid 0)
		Inflow: func(cfg jet.Config, gm gas.Model, r []float64) bc.Source {
			col := make([]gas.Primitive, len(r))
			for j, rj := range r {
				col[j] = poiseuille(cfg, gm, rj, lr)
			}
			return channelSource{col: col}
		},
		// The initial state is the inflow profile swept downstream: close
		// to the viscous steady state, so short runs stay well-behaved.
		Init: func(cfg jet.Config, gm gas.Model, x, r float64) gas.Primitive {
			return poiseuille(cfg, gm, r, lr)
		},
	}, nil
}

// Convergence: open inflow-outflow flow — the residual controller works.
func (channelScenario) Convergence() Criterion { return ConvergeResidual }

func (channelScenario) Claims() []string {
	return []string{"CHAN-parity", "CHAN-mass-flux"}
}
