package scenario

import (
	"fmt"

	"repro/internal/gas"
	"repro/internal/grid"
	"repro/internal/jet"
	"repro/internal/solver"
)

// CavityR0 is the radial offset of the cavity grid. The axisymmetric
// kernels keep their 1/r metric terms; placing the unit-square domain
// at r in [R0, R0+1] with R0 >> 1 makes every metric contribution
// O(1/R0) — the planar limit — without touching a single kernel. At
// R0 = 1e4 the curvature terms sit at 1e-4 of the planar fluxes, far
// below the truncation error of any grid this scenario runs on.
const CavityR0 = 1e4

// CavityReynolds is the lid Reynolds number rho*ULid*L/mu implied by
// the pinned configuration (jet.Config's Mu normalizes by the jet
// *diameter* 2, so Reynolds: 200 below yields a unit-cavity Re of 100
// — the classic Ghia, Ghia & Shin (1982) validation point).
const CavityReynolds = 100

// cavityScenario is the lid-driven cavity: four no-slip walls, the top
// one sliding at ULid = cfg.UCenter(). No inflow eigenfunction, no
// outflow — the wall-mirror ghost machinery carries every side.
type cavityScenario struct{}

func (cavityScenario) Name() string { return "cavity" }

func (cavityScenario) Describe() string {
	return "lid-driven square cavity, Re 100 (Ghia et al. reference)"
}

// Config pins the cavity's validated parameter set and ignores base:
// the scenario is a fixed benchmark problem, not a parameter study.
// MachCenter 0.2 keeps the lid comfortably subsonic (compressibility
// O(M^2) = 4% against the incompressible reference data) while leaving
// the acoustic CFL limit workable.
func (cavityScenario) Config(jet.Config) jet.Config {
	return jet.Config{
		MachCenter: 0.2,   // lid Mach number
		TempRatio:  1,     // isothermal walls at ambient temperature
		Theta:      0.125, // unused (no shear-layer profile); kept valid
		Strouhal:   0.125, // unused (no excitation)
		Eps:        0,     // no inflow excitation
		UCoflow:    0,
		Reynolds:   2 * CavityReynolds, // diameter-2 normalization, see CavityReynolds
		Viscous:    true,
	}
}

// Grid is the unit square offset to the planar limit. With staggered
// radial nodes y_j = (j+0.5)*Dr, nr resolves the wall-normal direction
// and the lid plane sits half a cell above row nr-1.
func (cavityScenario) Grid(nx, nr int) (*grid.Grid, error) {
	return grid.NewOffset(nx, nr, 1, 1, CavityR0)
}

func (cavityScenario) Problem(cfg jet.Config, g *grid.Grid) (*solver.Problem, error) {
	if g.R0 == 0 {
		return nil, fmt.Errorf("scenario: cavity requires an offset grid (grid.NewOffset); got R0=0")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ulid := cfg.UCenter()
	return &solver.Problem{
		Name: "cavity",
		Wall: solver.WallSpec{Left: true, Right: true, Bottom: true, Top: true, ULid: ulid},
		// Impulsive start: quiescent ambient fluid, lid already moving.
		Init: func(cfg jet.Config, gm gas.Model, x, r float64) gas.Primitive {
			return gas.Primitive{Rho: 1, U: 0, V: 0, P: gm.AmbientPressure()}
		},
	}, nil
}

// Convergence: the cavity is a closed wall-driven flow — the lid pumps
// work into the energy forever, so the conserved-state residual floors
// at the dissipation rate while the velocity field freezes. Stop on
// velocity steadiness instead (the rule the Ghia validation test used
// inline before the scenario owned it).
func (cavityScenario) Convergence() Criterion { return ConvergeSteadiness }

func (cavityScenario) Claims() []string {
	return []string{"CAV-ghia-centerline", "CAV-parity"}
}

// GhiaRe100 is the u-velocity along the vertical centerline x = 0.5 of
// the Re=100 lid-driven cavity from Ghia, Ghia & Shin, "High-Re
// solutions for incompressible flow using the Navier-Stokes equations
// and a multigrid method", J. Comput. Phys. 48 (1982), Table I
// (u normalized by the lid speed, y measured from the stationary
// bottom wall). The scenario validation test interpolates the solver's
// centerline profile onto these stations.
var GhiaRe100 = []struct{ Y, U float64 }{
	{0.0547, -0.03717},
	{0.0625, -0.04192},
	{0.0703, -0.04775},
	{0.1016, -0.06434},
	{0.1719, -0.10150},
	{0.2813, -0.15662},
	{0.4531, -0.21090},
	{0.5000, -0.20581},
	{0.6172, -0.13641},
	{0.7344, 0.00332},
	{0.8516, 0.23151},
	{0.9531, 0.68717},
	{0.9609, 0.73722},
	{0.9688, 0.78871},
	{0.9766, 0.84123},
}
