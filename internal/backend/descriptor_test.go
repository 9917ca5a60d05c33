package backend

import (
	"testing"

	"repro/internal/jet"
	"repro/internal/solver"
)

// TestAcceptRejectGrid pins the option contract of every registered
// name: Validate and Run must agree on accept/reject for every cell of
// the option matrix, and the grid must equal the literal table below —
// recorded from the per-backend Validate/Run bodies the descriptor
// table replaced, so the collapse provably accepted and rejected
// nothing new. Every cell sets Procs 2 plus the one option its column
// names; 'A' accepts, 'R' rejects.
func TestAcceptRejectGrid(t *testing.T) {
	g := testGrid(t)
	cfg := jet.Paper()
	cells := []struct {
		label string
		o     Options
	}{
		{"base", Options{}},
		{"uniform", Options{Balance: BalanceUniform}},
		{"flops", Options{Balance: BalanceFlops}},
		{"measured", Options{Balance: BalanceMeasured}},
		{"bogus-balance", Options{Balance: "bogus"}},
		{"col-weights", Options{ColWeights: testRamp(g.Nx)}},
		{"row-weights", Options{RowWeights: testRamp(g.Nr)}},
		{"flops+col-weights", Options{Balance: BalanceFlops, ColWeights: testRamp(g.Nx)}},
		{"wide2", Options{Policy: solver.Wide(2)}},
		{"group2", Options{ReduceGroup: 2}},
		{"group4", Options{ReduceGroup: 4}},
		{"1x2", Options{Px: 1, Pr: 2}},
		{"1x2+wide2", Options{Px: 1, Pr: 2, Policy: solver.Wide(2)}},
		{"1x2+row-weights", Options{Px: 1, Pr: 2, RowWeights: testRamp(g.Nr)}},
		{"2x2", Options{Px: 2, Pr: 2}},
		{"stop-tol", Options{StopTol: 1e-3}},
	}
	//                      b u f m b c r f w g g 1 1 1 2 s
	want := map[string]string{
		"hybrid":    "A A A A R A R R A A R A A R A A",
		"hybrid:v6": "A A A A R A R R A A R A A R A A",
		"hybrid:v7": "A A A A R A R R A A R A A R A A",
		"mp2d":      "A A A A R A A R A A R A R A R A",
		"mp2d:v6":   "A A A A R A A R A A R A R A R A",
		"mp:v5":     "A A A A R A R R A A R A A R A A",
		"mp:v6":     "A A A A R A R R A A R A A R A A",
		"mp:v7":     "A A A A R A R R A A R A A R A A",
		"serial":    "A A R R R R R R R R R A R R A A",
		"shm":       "A A R R R R R R R R R A R R A A",
	}
	if len(want) != len(Names()) {
		t.Fatalf("table covers %d names, backends are %v", len(want), Names())
	}
	for _, name := range Names() {
		b, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 0, 2*len(cells))
		for _, c := range cells {
			o := c.o
			o.Procs = 2
			verr := b.Validate(cfg, g, o)
			_, rerr := b.Run(cfg, g, o, 2)
			if (verr == nil) != (rerr == nil) {
				t.Errorf("%s %s: Validate and Run disagree (validate: %v, run: %v)", name, c.label, verr, rerr)
			}
			mark := byte('A')
			if verr != nil {
				mark = 'R'
			}
			got = append(got, mark, ' ')
		}
		if s := string(got[:len(got)-1]); s != want[name] {
			t.Errorf("%-9s accept/reject row\n got  %s\n want %s", name, s, want[name])
		}
	}
}
