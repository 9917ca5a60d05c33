package backend

import (
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/jet"
	"repro/internal/solver"
)

// TestGoldenWideVariants extends the checksum net to the
// communication-avoiding Wide(k) halo policy: ranks carry a redundant
// ghost shell and exchange every k-th step, yet must reproduce the
// serial field bits exactly — on both decompositions, the overlapped
// and de-burst strategies, the hybrid composition, and a weighted
// split. Wide(1) rides along to pin that it is literally Fresh.
func TestGoldenWideVariants(t *testing.T) {
	assertGoldenVariants(t, func(c goldenCase) []goldenVariant {
		// Depth-k feasibility on these small grids depends on the shell
		// growth rate: the viscous stencil corrupts 12 points per skipped
		// step, the inviscid one 4, and every rank must keep ext+2 points.
		viscous := !c.Euler
		vs := []goldenVariant{
			{"mp:v5", Options{Procs: 3, Policy: solver.Wide(1)}},
			{"mp:v5", Options{Procs: 2, Policy: solver.Wide(2)}},
			{"mp:v5", Options{Procs: 3, Policy: solver.Wide(2)}},
			{"mp:v6", Options{Procs: 2, Policy: solver.Wide(2)}},
			{"mp:v7", Options{Procs: 2, Policy: solver.Wide(2)}},
			{"hybrid", Options{Procs: 2, Workers: 2, Policy: solver.Wide(2)}},
		}
		if viscous {
			// The 12-point viscous shell exceeds the 24-row goldens'
			// half-height, so the rank grid stays one block tall.
			vs = append(vs,
				goldenVariant{"mp2d", Options{Px: 2, Pr: 1, Policy: solver.Wide(2)}},
				goldenVariant{"mp2d:v6", Options{Px: 2, Pr: 1, Policy: solver.Wide(2)}},
			)
		} else {
			vs = append(vs,
				goldenVariant{"mp2d", Options{Px: 2, Pr: 2, Policy: solver.Wide(2)}},
				goldenVariant{"mp2d:v6", Options{Px: 2, Pr: 2, Policy: solver.Wide(2)}},
				goldenVariant{"mp:v5", Options{Procs: 3, Policy: solver.Wide(4)}},
				goldenVariant{"mp2d", Options{Px: 2, Pr: 1, Policy: solver.Wide(4)}},
				goldenVariant{"hybrid", Options{Procs: 2, Workers: 2, Policy: solver.Wide(4)}},
				goldenVariant{"mp:v5", Options{Procs: 2, Policy: solver.Wide(2), ColWeights: testRamp(c.Nx)}},
			)
		}
		return vs
	})
}

// TestWideDeepViscousParity covers the viscous Wide(4) depth the golden
// grids are too small for: a 36-point shell on a 96-column grid, checked
// bitwise against serial through the grouped and de-burst strategies.
func TestWideDeepViscousParity(t *testing.T) {
	const steps = 8
	cfg := jet.Paper()
	g := grid.MustNew(96, 32, 50, 5)
	ser, err := Get("serial")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ser.Run(cfg, g, Options{}, steps)
	if err != nil {
		t.Fatal(err)
	}
	refSum := fieldChecksum(ref.Fields)
	for _, name := range []string{"mp:v5", "mp:v7"} {
		b, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := b.Run(cfg, g, Options{Procs: 2, Policy: solver.Wide(4)}, steps)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sum := fieldChecksum(res.Fields); sum != refSum {
			t.Errorf("%s wide(4) checksum %016x != serial %016x", name, sum, refSum)
		}
	}
}

// TestWideMessageBudget pins the communication-avoiding arithmetic on a
// two-rank Navier-Stokes run: 8 steps exchange on steps 0,2,4,6 only,
// with a shell refresh before each exchange step after the first. The
// per-direction counters must show exactly the halved exchange budget
// plus the refresh traffic, book the skipped stages as saved startups,
// and break the shell's extra work out as redundant flops — while the
// physics stays bitwise-identical to the per-stage schedule.
func TestWideMessageBudget(t *testing.T) {
	const steps = 8
	cfg := jet.Paper()
	g := testGrid(t)
	b, err := Get("mp:v5")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := b.Run(cfg, g, Options{Procs: 2, Policy: solver.Fresh}, steps)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := b.Run(cfg, g, Options{Procs: 2, Policy: solver.Wide(2)}, steps)
	if err != nil {
		t.Fatal(err)
	}
	// Identical physics first: the budget is only interesting if the
	// cadence changed nothing about the answer.
	if math.Float64bits(wide.Diag.Mass) != math.Float64bits(fresh.Diag.Mass) ||
		math.Float64bits(wide.Diag.Energy) != math.Float64bits(fresh.Diag.Energy) {
		t.Fatalf("wide(2) diagnostics %+v != fresh %+v", wide.Diag, fresh.Diag)
	}
	// Fresh: 6 exchanges per composite step, each costing both ranks a
	// send and a receive — 24 startups per step, 192 over 8 steps.
	if fresh.Comm.Startups != 192 {
		t.Fatalf("fresh startups %d, want 192", fresh.Comm.Startups)
	}
	// Wide(2): the 4 exchange steps keep the full 24, the 3 refreshes
	// (every exchange step but the first) cost one send + one receive per
	// rank: 4*24 + 3*4 = 108.
	if wide.Comm.Startups != 108 {
		t.Errorf("wide(2) startups %d, want 108", wide.Comm.Startups)
	}
	// The 4 skipped steps' 24 startups each are booked as saved.
	if saved := wide.CommDir.Total().SavedStartups; saved != 96 {
		t.Errorf("wide(2) saved startups %d, want 96", saved)
	}
	if fresh.CommDir.Total().SavedStartups != 0 {
		t.Errorf("fresh booked %d saved startups, want 0", fresh.CommDir.Total().SavedStartups)
	}
	var freshRed, wideRed float64
	for _, rs := range fresh.PerRank {
		freshRed += rs.RedundantFlops
	}
	for _, rs := range wide.PerRank {
		wideRed += rs.RedundantFlops
	}
	if freshRed != 0 {
		t.Errorf("fresh booked %g redundant flops, want 0", freshRed)
	}
	if wideRed <= 0 {
		t.Errorf("wide(2) booked %g redundant flops, want > 0", wideRed)
	}
}

// TestWideRejectedBySingleSlabBackends: the single-slab backends have no
// rank halos and no collectives, so a Wide policy or a reduce group must
// fail Validate and Run with an actionable error, never run degenerately.
func TestWideRejectedBySingleSlabBackends(t *testing.T) {
	cfg := jet.Paper()
	g := testGrid(t)
	for _, name := range []string{"serial", "shm"} {
		b, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range []Options{
			{Procs: 1, Policy: solver.Wide(2)},
			{Procs: 1, ReduceGroup: 2},
		} {
			if name == "shm" {
				o.Procs = 2
			}
			if err := b.Validate(cfg, g, o); err == nil {
				t.Errorf("%s: Validate accepted %+v", name, o)
			}
			if _, err := b.Run(cfg, g, o, 1); err == nil {
				t.Errorf("%s: Run accepted %+v", name, o)
			}
		}
	}
}

// TestWideValidateCatchesNarrowSlabs: a shell deeper than the narrowest
// rank's span must fail validation before any rank is built, naming the
// deepest feasible depth.
func TestWideValidateCatchesNarrowSlabs(t *testing.T) {
	cfg := jet.Paper()
	g := testGrid(t)
	// 8 viscous ranks own 8 columns each; Wide(2) needs 12+2.
	b, err := Get("mp:v5")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(cfg, g, Options{Procs: 8, Policy: solver.Wide(2)}); err == nil {
		t.Error("mp:v5: 8 ranks on 64 columns accepted a 12-point shell")
	}
	// The radial direction is checked too: 12-row blocks cannot host it.
	m2, err := Get("mp2d")
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Validate(cfg, g, Options{Px: 1, Pr: 2, Policy: solver.Wide(2)}); err == nil {
		t.Error("mp2d: 12-row blocks accepted a 12-point radial shell")
	}
	// Group sizes beyond the world are caught at the same layer.
	if err := b.Validate(cfg, g, Options{Procs: 2, ReduceGroup: 4}); err == nil {
		t.Error("mp:v5: reduce group 4 accepted on a 2-rank world")
	}
	if err := b.Validate(cfg, g, Options{Procs: 2, ReduceGroup: -1}); err == nil {
		t.Error("mp:v5: negative reduce group accepted")
	}
}

// FuzzWideHalo drives the Wide(k) machinery across arbitrary small
// grids, rank counts (both decompositions), depths, and step counts:
// whenever validation admits the configuration it must reproduce the
// serial field bits exactly — non-divisible splits included.
func FuzzWideHalo(f *testing.F) {
	f.Add(24, 12, 2, 2, 3, false)
	f.Add(33, 14, 3, 2, 2, false) // non-divisible axial split
	f.Add(46, 18, 3, 4, 2, false) // deep shell
	f.Add(25, 13, 2, 3, 2, false)
	f.Add(24, 14, 4, 2, 2, true) // 2x2 rank grid
	f.Add(27, 15, 3, 2, 3, true) // 3x1 or 1x3 auto shape, odd spans
	f.Fuzz(func(t *testing.T, nx, nr, procs, depth, steps int, twoD bool) {
		nx = 12 + abs(nx)%37 // 12..48
		nr = 8 + abs(nr)%17  // 8..24
		procs = 1 + abs(procs)%4
		depth = 1 + abs(depth)%5
		steps = 1 + abs(steps)%4
		cfg := jet.Euler()
		g, err := grid.New(nx, nr, 50, 5)
		if err != nil {
			t.Skip()
		}
		name := "mp:v5"
		if twoD {
			name = "mp2d"
		}
		b, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		o := Options{Procs: procs, Policy: solver.Wide(depth)}
		if err := b.Validate(cfg, g, o); err != nil {
			t.Skip() // shell does not fit this decomposition
		}
		ser, err := Get("serial")
		if err != nil {
			t.Fatal(err)
		}
		ref, err := ser.Run(cfg, g, Options{}, steps)
		if err != nil {
			t.Skip() // configuration the serial solver itself rejects
		}
		res, err := b.Run(cfg, g, o, steps)
		if err != nil {
			t.Fatalf("%s %dx%d procs=%d wide(%d): %v", name, nx, nr, procs, depth, err)
		}
		if sum, want := fieldChecksum(res.Fields), fieldChecksum(ref.Fields); sum != want {
			t.Errorf("%s %dx%d procs=%d wide(%d) steps=%d: checksum %016x != serial %016x",
				name, nx, nr, procs, depth, steps, sum, want)
		}
	})
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
