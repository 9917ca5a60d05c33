package par

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/jet"
	"repro/internal/solver"
)

// TestMeasuredWeights covers the warm-up profile source: a multi-rank
// probe yields a full-length strictly positive profile (or reports
// "no signal" as nil), a single-rank probe always yields nil, and any
// returned profile feeds straight back into a weighted runner.
func TestMeasuredWeights(t *testing.T) {
	cfg := jet.Paper()
	g := grid.MustNew(64, 24, 50, 5)

	col, err := MeasuredColWeights(cfg, g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if col != nil {
		if len(col) != g.Nx {
			t.Fatalf("col profile length %d, want %d", len(col), g.Nx)
		}
		for i, w := range col {
			if w <= 0 {
				t.Fatalf("col weight %g at %d", w, i)
			}
		}
	}
	row, err := MeasuredRowWeights(cfg, g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if row != nil && len(row) != g.Nr {
		t.Fatalf("row profile length %d, want %d", len(row), g.Nr)
	}

	if w, err := MeasuredColWeights(cfg, g, 1, 1); err != nil || w != nil {
		t.Fatalf("single-rank probe: weights %v, err %v — want nil, nil", w, err)
	}

	r, err := NewRunner(cfg, g, Options{Px: 3, Pr: 1, Policy: solver.Fresh, ColWeights: col})
	if err != nil {
		t.Fatal(err)
	}
	if res := r.Run(1); res.Diag.HasNaN {
		t.Fatal("weighted run diverged")
	}
}
