package study

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/flux"
	"repro/internal/grid"
	"repro/internal/jet"
	"repro/internal/solver"
)

// TestPararealExactSchedule: at k iterations the exactness frontier
// has crossed every slice, so the terminal state is the continuous
// serial run bitwise — whatever the coarse propagator's quality, and
// for even and uneven slice partitions. The case is the backend
// goldens' ns-64x24 (paper jet, 8 steps).
func TestPararealExactSchedule(t *testing.T) {
	cfg, g, steps := jet.Paper(), grid.MustNew(64, 24, 50, 5), 8
	s, err := solver.NewSerialProblemCFL(cfg, nil, g, solver.DefaultCFL)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(steps)
	want := flux.NewState(g.Nx, g.Nr)
	s.StoreState(want)
	for _, c := range []int{1, 2} {
		for _, k := range []int{2, 3, 4} {
			got, defects, err := parareal(cfg, g, steps, k, c, 0)
			if err != nil {
				t.Fatalf("c=%d k=%d: %v", c, k, err)
			}
			if len(defects) != k {
				t.Errorf("c=%d k=%d: %d iterations, want %d", c, k, len(defects), k)
			}
			for v := 0; v < flux.NVar; v++ {
				for i := 0; i < g.Nx; i++ {
					a, b := got[v].Col(i), want[v].Col(i)
					for j := range a {
						if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
							t.Fatalf("c=%d k=%d: var %d (%d,%d) = %v, serial %v", c, k, v, i, j, a[j], b[j])
						}
					}
				}
			}
		}
	}
}

// TestPararealReSweepValues pins the measured Reynolds sweep to the
// values the concurrent parareal backend produced on the same
// configuration before it was replaced by the serial loop: iteration
// counts and second-iteration defects, bit for bit.
func TestPararealReSweepValues(t *testing.T) {
	pts, err := PararealReSweep([]float64{100, 500, 1.2e6})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		iters int
		early string
	}{
		{3, "0.006516712361495141"},
		{4, "0.0077122026688623965"},
		{4, "0.008453776403947682"},
	}
	for i, p := range pts {
		early := strconv.FormatFloat(p.EarlyDefect, 'g', -1, 64)
		if p.Iterations != want[i].iters || early != want[i].early {
			t.Errorf("Re=%g: %d iterations, early defect %s; want %d, %s", p.Re, p.Iterations, early, want[i].iters, want[i].early)
		}
	}
}
