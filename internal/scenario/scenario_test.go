package scenario

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/flux"
	"repro/internal/grid"
	"repro/internal/jet"
	"repro/internal/solver"
)

func TestRegistryNames(t *testing.T) {
	want := []string{"cavity", "channel", "jet"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, name := range want {
		sc, err := Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		if sc.Name() != name {
			t.Errorf("Get(%q).Name() = %q", name, sc.Name())
		}
		if sc.Describe() == "" {
			t.Errorf("%s: empty description", name)
		}
		if len(sc.Claims()) == 0 {
			t.Errorf("%s: no claims", name)
		}
	}
}

func TestGetUnknownListsAvailable(t *testing.T) {
	_, err := Get("vortex")
	if err == nil {
		t.Fatal("Get(vortex) succeeded")
	}
	for _, name := range append(Names(), "vortex") {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not mention %q", err, name)
		}
	}
}

// TestJetScenarioIsTransparent pins the jet registration to the
// pre-registry behaviour: caller's physics passed through untouched,
// the paper's 50x5 domain, and a problem whose zero fields select every
// built-in boundary treatment.
func TestJetScenarioIsTransparent(t *testing.T) {
	sc, _ := Get("jet")
	base := jet.Paper()
	if got := sc.Config(base); got != base {
		t.Errorf("jet Config rewrote the base: %+v", got)
	}
	g, err := sc.Grid(64, 24)
	if err != nil {
		t.Fatal(err)
	}
	if g.Lx != 50 || g.Lr != 5 || g.R0 != 0 {
		t.Errorf("jet grid geometry = %gx%g R0=%g, want 50x5 R0=0", g.Lx, g.Lr, g.R0)
	}
	prob, err := sc.Problem(base, g)
	if err != nil {
		t.Fatal(err)
	}
	if prob.Walls().Any() || prob.Inflow != nil || prob.Init != nil {
		t.Errorf("jet problem is not zero-valued: %+v", prob)
	}
}

func TestCavityRequiresOffsetGrid(t *testing.T) {
	sc, _ := Get("cavity")
	cfg := sc.Config(jet.Config{})
	g := grid.MustNew(16, 16, 1, 1) // R0 = 0: not a cavity grid
	if _, err := sc.Problem(cfg, g); err == nil {
		t.Fatal("cavity accepted a grid without the radial offset")
	}
}

// newSerial builds the serial solver for a registered scenario at the
// given resolution.
func newSerial(t *testing.T, name string, nx, nr int) (*solver.Serial, jet.Config, *grid.Grid) {
	t.Helper()
	sc, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sc.Config(jet.Paper())
	g, err := sc.Grid(nx, nr)
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
	return s, cfg, g
}

// TestScenarioShortRuns marches each wall-bounded scenario a few dozen
// steps and checks the fields stay finite and physical — the cheap
// guard that the wall ghosts and inflow hooks compose into a stable
// scheme before the expensive validation below.
func TestScenarioShortRuns(t *testing.T) {
	for _, name := range []string{"cavity", "channel"} {
		t.Run(name, func(t *testing.T) {
			s, _, _ := newSerial(t, name, 32, 16)
			s.Run(50)
			d := s.Diagnose()
			if d.HasNaN {
				t.Fatalf("%s: NaN after 50 steps", name)
			}
			if d.MinRho <= 0 || d.MinP <= 0 {
				t.Fatalf("%s: unphysical state rho=%g p=%g", name, d.MinRho, d.MinP)
			}
		})
	}
}

// TestChannelHoldsInflowProfile checks the channel's Dirichlet inflow:
// after marching, the inflow column still carries the parabolic
// profile it was pinned to (claim CHAN-mass-flux: the inflow mass flux
// is an invariant of the run, not a drifting quantity).
func TestChannelHoldsInflowProfile(t *testing.T) {
	s, cfg, g := newSerial(t, "channel", 32, 16)
	s.Run(50)
	uc := cfg.UCenter()
	for j := 0; j < g.Nr; j++ {
		r := g.R[j]
		want := uc * (1 - r*r/(g.Lr*g.Lr))
		rho := s.Q[flux.IRho].At(0, j)
		got := s.Q[flux.IMx].At(0, j) / rho
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("inflow u(%g) = %g, want %g", r, got, want)
		}
	}
}

// centerlineU samples u/ULid along the vertical centerline column ic.
func centerlineU(s *solver.Serial, ic int, ulid float64, out []float64) {
	for j := range out {
		out[j] = s.Q[flux.IMx].At(ic, j) / s.Q[flux.IRho].At(ic, j) / ulid
	}
}

// TestCavityGhiaCenterline is the physics validation of the cavity
// scenario: march the Re=100 lid-driven cavity to steady state and
// compare the u-velocity along the vertical centerline against the
// Ghia, Ghia & Shin (1982) reference (claim CAV-ghia-centerline).
//
// The march is fixed-length with an explicit steadiness check rather
// than residual-controlled: the cavity is a closed adiabatic box, so
// the moving lid does work on the fluid forever and the global L2
// residual floors at the viscous dissipation rate (the energy field
// keeps absorbing heat at a constant rate long after the velocity
// field is steady). Velocity steadiness is the convergence criterion
// that matches what the reference data describes.
//
// The solver is weakly compressible (lid Mach 0.2) on a 48x48-cell
// grid against an incompressible 129x129 multigrid reference, so the
// comparison is tolerance-based, not tight: 0.03 in u/ULid across all
// fifteen stations (observed worst deviation ~0.015).
func TestCavityGhiaCenterline(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state cavity run in -short mode")
	}
	// 49 axial nodes put a node exactly on the centerline x = 0.5.
	s, cfg, g := newSerial(t, "cavity", 49, 48)
	ic := (g.Nx - 1) / 2
	if x := g.X[ic]; math.Abs(x-0.5) > 1e-12 {
		t.Fatalf("centerline column %d sits at x=%g, not 0.5", ic, x)
	}
	ulid := cfg.UCenter()
	u := make([]float64, g.Nr)
	prev := make([]float64, g.Nr)
	s.Run(28000)
	centerlineU(s, ic, ulid, prev)
	s.Run(2000)
	centerlineU(s, ic, ulid, u)
	if d := s.Diagnose(); d.HasNaN {
		t.Fatal("cavity diverged")
	}
	for j := range u {
		if d := math.Abs(u[j] - prev[j]); d > 1e-3 {
			t.Fatalf("centerline not steady: |du/ULid| = %g at row %d after 30000 steps", d, j)
		}
	}
	// y_j = (j+0.5)*Dr: wall-normal coordinate of the staggered rows,
	// measured from the bottom wall like Ghia's y.
	y := make([]float64, g.Nr)
	for j := range y {
		y[j] = (float64(j) + 0.5) * g.Dr
	}
	const tol = 0.03
	worst := 0.0
	for _, ref := range GhiaRe100 {
		// Linear interpolation between the bracketing staggered rows
		// (every station lies strictly inside [y_0, y_{Nr-1}]).
		j := int(ref.Y/g.Dr - 0.5)
		w := (ref.Y - y[j]) / g.Dr
		got := (1-w)*u[j] + w*u[j+1]
		diff := math.Abs(got - ref.U)
		if diff > worst {
			worst = diff
		}
		if diff > tol {
			t.Errorf("u(y=%.4f)/ULid = %+.5f, Ghia %+.5f (|diff| %.4f > %.3f)",
				ref.Y, got, ref.U, diff, tol)
		}
	}
	t.Logf("cavity steady after 30000 steps (t=%.1f); worst centerline deviation %.4f", s.Time, worst)
}

// FuzzScenarioResolution drives every registered scenario through
// arbitrary resolutions: Grid either rejects the resolution or yields a
// grid on which Config validates and Problem builds — no panics, no
// invalid configurations escaping.
func FuzzScenarioResolution(f *testing.F) {
	f.Add(64, 24)
	f.Add(8, 4)
	f.Add(0, 0)
	f.Add(-3, 7)
	f.Add(250, 100)
	for _, seed := range []int{1 << 20, 3, 49} {
		f.Add(seed, seed)
	}
	f.Fuzz(func(t *testing.T, nx, nr int) {
		if nx > 1<<12 || nr > 1<<12 {
			t.Skip("allocation guard")
		}
		for _, name := range Names() {
			sc, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sc.Config(jet.Paper())
			if err := cfg.Validate(); err != nil {
				t.Fatalf("%s: invalid pinned config: %v", name, err)
			}
			g, err := sc.Grid(nx, nr)
			if err != nil {
				continue // rejected resolution: the valid outcome
			}
			if g.Nx != nx || g.Nr != nr {
				t.Fatalf("%s: Grid(%d,%d) returned %dx%d", name, nx, nr, g.Nx, g.Nr)
			}
			if _, err := sc.Problem(cfg, g); err != nil {
				t.Fatalf("%s: Problem on accepted grid %dx%d: %v", name, nx, nr, err)
			}
		}
	})
}
