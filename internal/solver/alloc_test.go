package solver_test

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/jet"
	"repro/internal/scenario"
	"repro/internal/solver"
)

// TestAdvanceSteadyStateAllocs locks in the allocation-free stepping
// path: with the field arena, the bound kernel closures, the stack
// stress tiles and the memoized inflow column in place, a composite
// step allocates nothing once warm — for the viscous paper
// configuration and the inviscid (Euler) one alike, and equally for
// every registered scenario (the wall-mirror edge fills and the
// scenario inflow hooks must stay allocation-free too). The test lives
// in package solver_test so it can build scenario problems without an
// import cycle.
func TestAdvanceSteadyStateAllocs(t *testing.T) {
	type tc struct {
		name string
		mk   func(t *testing.T) *solver.Serial
	}
	jetCase := func(name string, cfg jet.Config) tc {
		return tc{name, func(t *testing.T) *solver.Serial {
			s, err := solver.NewSerial(cfg, grid.MustNew(64, 32, 50, 5))
			if err != nil {
				t.Fatal(err)
			}
			return s
		}}
	}
	scenCase := func(name string) tc {
		return tc{name, func(t *testing.T) *solver.Serial {
			sc, err := scenario.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sc.Config(jet.Paper())
			g, err := sc.Grid(64, 32)
			if err != nil {
				t.Fatal(err)
			}
			prob, err := sc.Problem(cfg, g)
			if err != nil {
				t.Fatal(err)
			}
			s, err := solver.NewSerialProblemCFL(cfg, prob, g, solver.DefaultCFL)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}}
	}
	for _, c := range []tc{
		jetCase("paper", jet.Paper()),
		jetCase("euler", jet.Euler()),
		scenCase("cavity"),
		scenCase("channel"),
	} {
		t.Run(c.name, func(t *testing.T) {
			s := c.mk(t)
			s.Advance() // warm: inflow memoization for the first time level
			if allocs := testing.AllocsPerRun(20, s.Advance); allocs != 0 {
				t.Errorf("steady-state Advance allocates %.1f times, want 0", allocs)
			}
		})
	}
}
