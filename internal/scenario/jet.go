package scenario

import (
	"repro/internal/grid"
	"repro/internal/jet"
	"repro/internal/solver"
)

// jetScenario is the excited axisymmetric jet of the source paper —
// the first row of the table. Its Problem is entirely zero-valued, so
// every backend takes exactly the built-in code paths: eigenfunction
// inflow, axis mirror, far-field top, characteristic outflow.
type jetScenario struct{}

func (jetScenario) Name() string { return "jet" }

func (jetScenario) Describe() string {
	return "excited axisymmetric jet (the source paper's flow)"
}

// Config honors the caller's physical parameters unchanged — the jet is
// the one scenario whose physics the flags control.
func (jetScenario) Config(base jet.Config) jet.Config { return base }

// Grid reproduces the paper's 50x5 jet-diameter domain at the requested
// resolution (the 250x100 production grid is Grid(250, 100)).
func (jetScenario) Grid(nx, nr int) (*grid.Grid, error) {
	return grid.New(nx, nr, 50, 5)
}

func (jetScenario) Problem(cfg jet.Config, g *grid.Grid) (*solver.Problem, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &solver.Problem{Name: "jet"}, nil
}

// Convergence: the jet is an open flow — the residual controller works.
func (jetScenario) Convergence() Criterion { return ConvergeResidual }

func (jetScenario) Claims() []string {
	return []string{
		"T1-compute-ratio", "F2-mflops", "F13-weighted-balance", "CONV-early-stop",
	}
}
