package solver

import (
	"math"
	"testing"

	"repro/internal/flux"
	"repro/internal/grid"
	"repro/internal/jet"
)

func smallGrid(t *testing.T) *grid.Grid {
	t.Helper()
	return grid.MustNew(64, 32, 50, 5)
}

func TestSerialRunsStableNavierStokes(t *testing.T) {
	s, err := NewSerial(jet.Paper(), smallGrid(t))
	if err != nil {
		t.Fatal(err)
	}
	d0 := s.Diagnose()
	s.Run(50)
	d := s.Diagnose()
	if d.HasNaN {
		t.Fatal("NaN after 50 steps")
	}
	if d.MinRho <= 0 || d.MinP <= 0 {
		t.Fatalf("nonphysical state: minRho=%g minP=%g", d.MinRho, d.MinP)
	}
	if rel := math.Abs(d.Mass-d0.Mass) / d0.Mass; rel > 0.05 {
		t.Errorf("mass drifted %.2f%% in 50 steps", rel*100)
	}
}

func TestSerialRunsStableEuler(t *testing.T) {
	s, err := NewSerial(jet.Euler(), smallGrid(t))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(50)
	d := s.Diagnose()
	if d.HasNaN {
		t.Fatal("NaN after 50 steps")
	}
	if d.MinRho <= 0 || d.MinP <= 0 {
		t.Fatalf("nonphysical state: minRho=%g minP=%g", d.MinRho, d.MinP)
	}
}

// An unexcited jet initialized with the parallel mean flow should stay
// close to steady over a short horizon: the profile is not an exact
// steady solution (it diffuses), but no instability should blow up.
func TestUnexcitedJetNearSteady(t *testing.T) {
	cfg := jet.Paper()
	cfg.Eps = 0
	s, err := NewSerial(cfg, smallGrid(t))
	if err != nil {
		t.Fatal(err)
	}
	before := s.Q[flux.IMx].Clone()
	s.Run(20)
	if s.Diagnose().HasNaN {
		t.Fatal("NaN")
	}
	// rho*u should not change by more than a few percent of the jet
	// momentum scale over 20 short steps.
	diff := s.Q[flux.IMx].MaxAbsDiff(before)
	scale := cfg.UCenter() * 0.5 // rho_c * Uc
	if diff > 0.15*scale {
		t.Errorf("unexcited jet drifted: max|d(rho u)| = %g (scale %g)", diff, scale)
	}
}

func TestExcitationGrowsFromZero(t *testing.T) {
	cfg := jet.Paper()
	s, err := NewSerial(cfg, smallGrid(t))
	if err != nil {
		t.Fatal(err)
	}
	if v := s.Diagnose().MaxV; v != 0 {
		t.Fatalf("initial radial velocity should be zero, got %g", v)
	}
	s.Run(30)
	d := s.Diagnose()
	if d.MaxV == 0 {
		t.Error("excitation produced no radial velocity")
	}
	if d.MaxV > 0.5 {
		t.Errorf("radial velocity unreasonably large: %g", d.MaxV)
	}
}

func TestStableDtPositiveAndSmall(t *testing.T) {
	s, err := NewSerial(jet.Paper(), smallGrid(t))
	if err != nil {
		t.Fatal(err)
	}
	if s.Dt <= 0 {
		t.Fatalf("dt = %g", s.Dt)
	}
	// dx/(u+c) with u ~ 2.12, c ~ 1.41 and dx ~ 0.79: dt must be below that.
	g := s.Grid
	limit := g.Dx / (s.Cfg.UCenter() + 1)
	if s.Dt > limit {
		t.Errorf("dt %g exceeds advective limit %g", s.Dt, limit)
	}
}

func TestSlabValidation(t *testing.T) {
	g := smallGrid(t)
	gm := jet.Paper().Gas()
	if _, err := NewSlabProblem(jet.Paper(), nil, g, gm, 0, 3, 0, g.Nr, nil, Fresh); err == nil {
		t.Error("want error for slab narrower than stencil")
	}
	if _, err := NewSlabProblem(jet.Paper(), nil, g, gm, 60, 10, 0, g.Nr, nil, Fresh); err == nil {
		t.Error("want error for slab outside grid")
	}
	bad := jet.Paper()
	bad.MachCenter = -1
	if _, err := NewSlabProblem(bad, nil, g, gm, 0, g.Nx, 0, g.Nr, nil, Fresh); err == nil {
		t.Error("want error for invalid config")
	}
}

func TestSlabRectValidation(t *testing.T) {
	g := smallGrid(t)
	gm := jet.Paper().Gas()
	if _, err := NewSlabProblem(jet.Paper(), nil, g, gm, 0, g.Nx, 0, 3, nil, Fresh); err == nil {
		t.Error("want error for block shorter than stencil")
	}
	if _, err := NewSlabProblem(jet.Paper(), nil, g, gm, 0, g.Nx, g.Nr-2, 6, nil, Fresh); err == nil {
		t.Error("want error for rows outside grid")
	}
	s, err := NewSlabProblem(jet.Paper(), nil, g, gm, 4, 8, 4, g.Nr-4, nil, Fresh)
	if err != nil {
		t.Fatal(err)
	}
	if s.Bottom || !s.Top || s.Left || s.Right {
		t.Fatalf("edge flags wrong: bottom=%v top=%v left=%v right=%v", s.Bottom, s.Top, s.Left, s.Right)
	}
	if len(s.R) != g.Nr-4 || s.R[0] != g.R[4] {
		t.Fatalf("local radii window wrong: len=%d r0=%g", len(s.R), s.R[0])
	}
	if s.NrLoc != g.Nr-4 || s.J0 != 4 {
		t.Fatalf("rect extent wrong: j0=%d nrloc=%d", s.J0, s.NrLoc)
	}
}

func TestFlopAccountingAccumulates(t *testing.T) {
	s, err := NewSerial(jet.Paper(), smallGrid(t))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(2)
	if s.T.Flops <= 0 {
		t.Fatal("no flops accounted")
	}
	perPointStep := s.T.Flops / float64(s.Grid.NPoints()*2)
	if perPointStep < 100 || perPointStep > 3000 {
		t.Errorf("flops per point per step = %g, out of plausible range", perPointStep)
	}
}
