package backend

import (
	"math"
	"testing"

	"repro/internal/flux"
	"repro/internal/grid"
	"repro/internal/jet"
	"repro/internal/solver"
)

// TestConvergedStopParity is the convergence controller's central
// guarantee: under the Fresh halo policy a tolerance-stopped run
// terminates at the same step count on every registered backend — each
// rank takes the stop decision from its own copy of the allreduced
// residual — with bitwise-identical fields vs the serial stop. The
// sweep covers every backend, widths 1..4, both decompositions
// (including a remainder-block rank grid), and the overlapped
// schedules.
func TestConvergedStopParity(t *testing.T) {
	const (
		maxSteps = 400
		tol      = 9e-3
		every    = 5
	)
	g := grid.MustNew(64, 26, 50, 5)
	// The converging-jet scenario (study.ConvergedConfig, inlined here
	// so the study package is free to drive this registry without an
	// import cycle through the test binary).
	cfg := jet.Paper()
	cfg.Eps = 0
	cfg.Reynolds = 500

	ser, err := Get("serial")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ser.Run(cfg, g, Options{StopTol: tol, ReduceEvery: every}, maxSteps)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Converged || ref.Steps == maxSteps {
		t.Fatalf("serial reference did not stop early: steps=%d converged=%v", ref.Steps, ref.Converged)
	}
	refRes := ref.Residuals[len(ref.Residuals)-1].Residual

	cases := []struct {
		name string
		o    Options
	}{
		{"shm", Options{Procs: 3}},
		{"mp:v5", Options{Procs: 1}},
		{"mp:v5", Options{Procs: 2}},
		{"mp:v5", Options{Procs: 3}},
		{"mp:v5", Options{Procs: 4}},
		{"mp:v6", Options{Procs: 3}},
		{"mp:v7", Options{Procs: 2}},
		{"mp2d", Options{Px: 2, Pr: 2}},
		{"mp2d", Options{Px: 3, Pr: 1}},
		{"mp2d:v6", Options{Px: 2, Pr: 2}},
		{"hybrid", Options{Procs: 2, Workers: 2}},
	}
	for _, c := range cases {
		t.Run(c.name+"/"+optionsLabel(c.o), func(t *testing.T) {
			b, err := Get(c.name)
			if err != nil {
				t.Fatal(err)
			}
			o := c.o
			o.Policy = solver.Fresh
			o.StopTol = tol
			o.ReduceEvery = every
			res, err := b.Run(cfg, g, o, maxSteps)
			if err != nil {
				t.Fatal(err)
			}
			if res.Steps != ref.Steps || !res.Converged {
				t.Fatalf("stopped at step %d (converged=%v), serial stopped at %d", res.Steps, res.Converged, ref.Steps)
			}
			if len(res.Residuals) != len(ref.Residuals) {
				t.Fatalf("%d residual samples, serial has %d", len(res.Residuals), len(ref.Residuals))
			}
			last := res.Residuals[len(res.Residuals)-1].Residual
			if rel := math.Abs(last-refRes) / refRes; rel > 1e-12 {
				t.Errorf("final residual %g vs serial %g (rel %g)", last, refRes, rel)
			}
			for k := 0; k < flux.NVar; k++ {
				if !res.Fields[k].Equal(ref.Fields[k]) {
					t.Errorf("component %d differs from serial (max %g)",
						k, res.Fields[k].MaxAbsDiff(ref.Fields[k]))
				}
			}
		})
	}
}

// TestConvergenceControlValidation: nonsense control values must be
// rejected by Validate and Run alike, on backends with and without a
// message layer.
func TestConvergenceControlValidation(t *testing.T) {
	g := grid.MustNew(64, 24, 50, 5)
	cfg := jet.Paper()
	bad := []Options{
		{StopTol: -1},
		{Procs: 2, ReduceEvery: -3},
	}
	for _, name := range []string{"serial", "mp:v5"} {
		b, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range bad {
			if err := b.Validate(cfg, g, o); err == nil {
				t.Errorf("%s: Validate accepted %+v", name, o)
			}
			if _, err := b.Run(cfg, g, o, 1); err == nil {
				t.Errorf("%s: Run accepted %+v", name, o)
			}
		}
	}
}

// TestMonitorWithoutStop: ReduceEvery alone monitors (history, reduce
// traffic) without stopping, and the fixed-step count is preserved.
func TestMonitorWithoutStop(t *testing.T) {
	b, err := Get("mp:v5")
	if err != nil {
		t.Fatal(err)
	}
	g := grid.MustNew(64, 24, 50, 5)
	res, err := b.Run(jet.Paper(), g, Options{Procs: 4, ReduceEvery: 3}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 10 || res.Converged {
		t.Fatalf("monitoring must not stop the run: steps=%d converged=%v", res.Steps, res.Converged)
	}
	if len(res.Residuals) != 3 {
		t.Fatalf("%d residual samples over 10 steps at cadence 3, want 3", len(res.Residuals))
	}
	if res.CommDir.Reduce.Startups == 0 {
		t.Fatal("monitored run recorded no reduce-class traffic")
	}
	tot := res.CommDir.Total()
	if tot.Startups != res.Comm.Startups || tot.Bytes != res.Comm.Bytes {
		t.Fatalf("class split %v does not sum to aggregate %v", res.CommDir, res.Comm)
	}
	// Collective budget: 2 allreduces per monitored step, log2(4)=2
	// rounds each, one send+recv per rank per round -> per-rank
	// startups = monitors * 2 * 2 * 2 (send and recv both count).
	wantPerRank := int64(3 * 2 * 2 * 2)
	if got := res.CommDir.Reduce.Startups; got != wantPerRank*4 {
		t.Errorf("reduce startups %d, want %d", got, wantPerRank*4)
	}
}

// TestUncontrolledRunUnchanged: a zero control is the plain fixed-step
// run — same steps, no history, no reduce traffic, bitwise fields.
func TestUncontrolledRunUnchanged(t *testing.T) {
	b, err := Get("mp:v5")
	if err != nil {
		t.Fatal(err)
	}
	g := grid.MustNew(64, 24, 50, 5)
	res, err := b.Run(jet.Paper(), g, Options{Procs: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 4 || res.Converged || len(res.Residuals) != 0 {
		t.Fatalf("uncontrolled run reports control artifacts: %+v", res)
	}
	if res.CommDir.Reduce.Startups != 0 {
		t.Fatalf("uncontrolled run sent %d reduce startups", res.CommDir.Reduce.Startups)
	}
}
