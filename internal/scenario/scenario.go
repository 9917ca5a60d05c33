// Package scenario is the flow-problem table, mirroring the backend
// table: each Scenario binds the general numerics substrate
// (flux/scheme/bc/grid/solver) to one physical flow — domain geometry,
// physical configuration, boundary conditions, initial state, and the
// study claims it grounds. The excited jet of the source paper is the
// first row; the lid-driven cavity and the channel flow exercise
// wall-bounded and inflow–outflow boundary compositions on the same
// kernels. Every scenario runs on every backend,
// and the backend parity sweep pins each one bitwise against serial.
package scenario

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/grid"
	"repro/internal/jet"
	"repro/internal/solver"
)

// Criterion selects the monitored quantity a convergence-controlled run
// of a scenario stops on. Open flows drive the conserved-state residual
// to zero; closed wall-driven flows never do (the energy keeps absorbing
// wall work at the dissipation rate) and must watch the velocity field
// instead — the distinction DESIGN §4a documents and this table owns
// per scenario.
type Criterion int

const (
	// ConvergeResidual stops on the L2 RMS rate of change of the
	// conserved state (solver.Control.StopTol).
	ConvergeResidual Criterion = iota
	// ConvergeSteadiness stops on the maximum pointwise velocity change
	// rate (solver.Control.SteadyTol).
	ConvergeSteadiness
)

// String names the criterion's flag: -tol or -steady-tol.
func (c Criterion) String() string {
	if c == ConvergeSteadiness {
		return "steadiness (-steady-tol)"
	}
	return "residual (-tol)"
}

// Scenario describes one registered flow problem end to end.
type Scenario interface {
	// Name is the table key (the -scenario flag value).
	Name() string
	// Describe is a one-line summary for listings and docs.
	Describe() string
	// Config adapts the base physical configuration. The jet honors the
	// caller's parameters unchanged; the wall-bounded scenarios pin
	// their own validated parameter sets and ignore base.
	Config(base jet.Config) jet.Config
	// Grid builds the domain for the requested resolution. The returned
	// grid must be immutable after construction: core shares one grid
	// across concurrent runs of the same scenario and resolution.
	Grid(nx, nr int) (*grid.Grid, error)
	// Problem binds the scenario's boundary conditions and initial
	// state to the solver (see solver.Problem); the returned problem's
	// zero fields select the built-in jet treatments.
	Problem(cfg jet.Config, g *grid.Grid) (*solver.Problem, error)
	// Convergence names the stop criterion a convergence-controlled
	// run of this scenario should monitor.
	Convergence() Criterion
	// Claims lists the study-claim or validation identifiers this
	// scenario grounds.
	Claims() []string
}

// scenarios is the scenario table. It is a literal, never written, so
// concurrent runs read it without a lock.
var scenarios = []Scenario{jetScenario{}, cavityScenario{}, channelScenario{}}

// Get looks a scenario up by name; unknown names list the table.
func Get(name string) (Scenario, error) {
	for _, s := range scenarios {
		if s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("scenario: unknown scenario %q (available: %s)", name, strings.Join(Names(), ", "))
}

// Names returns the sorted scenario names.
func Names() []string {
	names := make([]string, len(scenarios))
	for i, s := range scenarios {
		names[i] = s.Name()
	}
	slices.Sort(names)
	return names
}
