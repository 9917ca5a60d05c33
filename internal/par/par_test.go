package par

import (
	"testing"

	"repro/internal/flux"
	"repro/internal/grid"
	"repro/internal/jet"
	"repro/internal/solver"
)

func testGrid() *grid.Grid { return grid.MustNew(64, 24, 50, 5) }

// runSerial advances the reference solver and returns its state.
func runSerial(t *testing.T, cfg jet.Config, g *grid.Grid, steps int) *solver.Serial {
	t.Helper()
	s, err := solver.NewSerial(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(steps)
	return s
}

// TestParallelMatchesSerialBitwise is the central correctness property
// of the parallelization: under the Fresh halo policy, every rank count
// and every communication strategy must reproduce the serial arithmetic
// exactly.
func TestParallelMatchesSerialBitwise(t *testing.T) {
	const steps = 8
	for _, cfg := range []jet.Config{jet.Paper(), jet.Euler()} {
		g := testGrid()
		ref := runSerial(t, cfg, g, steps)
		for _, procs := range []int{1, 2, 3, 4, 8} {
			for _, ver := range []Version{V5, V6, V7} {
				r, err := NewRunner(cfg, g, Options{Px: procs, Pr: 1, Version: ver, Policy: solver.Fresh})
				if err != nil {
					t.Fatal(err)
				}
				if r.Slabs[0].Dt != ref.Dt {
					t.Fatalf("P=%d %v: dt %g != serial %g", procs, ver, r.Slabs[0].Dt, ref.Dt)
				}
				r.Run(steps)
				got := r.GatherState()
				for k := 0; k < flux.NVar; k++ {
					if !got[k].Equal(ref.Q[k]) {
						t.Errorf("viscous=%v P=%d %v: component %d differs from serial (max %g)",
							cfg.Viscous, procs, ver, k, got[k].MaxAbsDiff(ref.Q[k]))
					}
				}
			}
		}
	}
}

// Under the Lagged policy (the paper's startup budget) the parallel
// Navier-Stokes run uses one-stage-old halos for viscous
// cross-derivatives in the radial sweep; it must agree with serial to a
// small tolerance, and Euler (no cross-derivatives) must stay exact.
func TestLaggedPolicyAccuracy(t *testing.T) {
	const steps = 10
	g := testGrid()

	eRef := runSerial(t, jet.Euler(), g, steps)
	r, err := NewRunner(jet.Euler(), g, Options{Px: 4, Pr: 1, Policy: solver.Lagged})
	if err != nil {
		t.Fatal(err)
	}
	r.Run(steps)
	got := r.GatherState()
	for k := 0; k < flux.NVar; k++ {
		if !got[k].Equal(eRef.Q[k]) {
			t.Errorf("Euler lagged: component %d differs (max %g)", k, got[k].MaxAbsDiff(eRef.Q[k]))
		}
	}

	nRef := runSerial(t, jet.Paper(), g, steps)
	rn, err := NewRunner(jet.Paper(), g, Options{Px: 4, Pr: 1, Policy: solver.Lagged})
	if err != nil {
		t.Fatal(err)
	}
	rn.Run(steps)
	gotN := rn.GatherState()
	for k := 0; k < flux.NVar; k++ {
		// The lagged halo perturbs only viscous cross-derivatives at slab
		// boundaries: O(mu*dt) per step, tiny but nonzero.
		if d := gotN[k].MaxAbsDiff(nRef.Q[k]); d > 5e-6 {
			t.Errorf("N-S lagged: component %d deviates %g from serial", k, d)
		}
	}
}

// TestStartupCountsMatchTable1 verifies the paper's message budget:
// under the Lagged policy an interior rank initiates 16 startups per
// composite step for Navier-Stokes and 12 for Euler (sends plus
// receives, two neighbours).
func TestStartupCountsMatchTable1(t *testing.T) {
	const steps = 5
	cases := []struct {
		cfg  jet.Config
		want int64
	}{
		{jet.Paper(), 16},
		{jet.Euler(), 12},
	}
	for _, c := range cases {
		r, err := NewRunner(c.cfg, testGrid(), Options{Px: 4, Pr: 1, Policy: solver.Lagged})
		if err != nil {
			t.Fatal(err)
		}
		res := r.Run(steps)
		for _, rs := range res.Ranks {
			if rs.Rank == 0 || rs.Rank == res.Procs-1 {
				continue // edge ranks have one neighbour
			}
			perStep := rs.Comm.Startups / int64(steps)
			if perStep != c.want {
				t.Errorf("viscous=%v rank %d: %d startups/step, want %d", c.cfg.Viscous, rs.Rank, perStep, c.want)
			}
		}
		// Edge ranks: half the startups.
		if per := res.Ranks[0].Comm.Startups / int64(steps); per != c.want/2 {
			t.Errorf("viscous=%v edge rank: %d startups/step, want %d", c.cfg.Viscous, per, c.want/2)
		}
	}
}

// TestVolumeMatchesTable1 checks the per-step send volume of an interior
// rank: 16 column-variables per neighbour for N-S (25.6 KB at nr=100),
// 12 for Euler, as derived in DESIGN.md §5.
func TestVolumeMatchesTable1(t *testing.T) {
	const steps = 5
	g := testGrid()
	nr := g.Nr
	cases := []struct {
		cfg        jet.Config
		colVarsPer int // per neighbour per step
	}{
		{jet.Paper(), 16},
		{jet.Euler(), 12},
	}
	for _, c := range cases {
		r, err := NewRunner(c.cfg, g, Options{Px: 4, Pr: 1, Policy: solver.Lagged})
		if err != nil {
			t.Fatal(err)
		}
		res := r.Run(steps)
		rs := res.Ranks[1] // interior: two neighbours
		// colVarsPer counts 4 vars x 4 (or 3) exchanges; each exchange
		// sends 2 columns: bytes = colVars*2cols*nr*8 per neighbour/step.
		wantBytes := int64(c.colVarsPer) * 2 * int64(nr) * 8 * int64(steps) * 2 // two neighbours
		if rs.Comm.Bytes != wantBytes {
			t.Errorf("viscous=%v: interior rank sent %d bytes, want %d", c.cfg.Viscous, rs.Comm.Bytes, wantBytes)
		}
	}
}

// Version 7 doubles the flux-exchange startups without changing volume.
func TestVersion7Startups(t *testing.T) {
	const steps = 4
	g := testGrid()
	r5, err := NewRunner(jet.Paper(), g, Options{Px: 4, Pr: 1, Version: V5, Policy: solver.Lagged})
	if err != nil {
		t.Fatal(err)
	}
	r7, err := NewRunner(jet.Paper(), g, Options{Px: 4, Pr: 1, Version: V7, Policy: solver.Lagged})
	if err != nil {
		t.Fatal(err)
	}
	res5, res7 := r5.Run(steps), r7.Run(steps)
	s5, s7 := res5.Ranks[1].Comm.Startups, res7.Ranks[1].Comm.Startups
	// N-S: 4 exchanges of which 2 are flux kinds; V7 doubles those:
	// 16 -> 24 startups/step.
	if want := s5 * 24 / 16; s7 != want {
		t.Errorf("V7 startups = %d, want %d (V5 = %d)", s7, want, s5)
	}
	if res5.Ranks[1].Comm.Bytes != res7.Ranks[1].Comm.Bytes {
		t.Errorf("V7 changed volume: %d vs %d", res7.Ranks[1].Comm.Bytes, res5.Ranks[1].Comm.Bytes)
	}
}

func TestRunnerValidation(t *testing.T) {
	g := testGrid()
	if _, err := NewRunner(jet.Paper(), g, Options{Px: 0, Pr: 1}); err == nil {
		t.Error("want error for zero ranks")
	}
	if _, err := NewRunner(jet.Paper(), g, Options{Px: 64, Pr: 1}); err == nil {
		t.Error("want error for slabs below stencil width")
	}
	if _, err := NewRunner(jet.Paper(), g, Options{Px: 2, Pr: 1, Version: Version(9)}); err == nil {
		t.Error("want error for unknown version")
	}
}

func TestLoadBalanceNearPerfect(t *testing.T) {
	r, err := NewRunner(jet.Paper(), testGrid(), Options{Px: 8, Pr: 1, Policy: solver.Lagged})
	if err != nil {
		t.Fatal(err)
	}
	if imb := r.Dec.Imbalance(); imb > 0.15 {
		t.Errorf("decomposition imbalance %g too high", imb)
	}
	res := r.Run(6)
	// FLOP counts should be balanced to within the column imbalance.
	minF, maxF := res.Ranks[0].Flops, res.Ranks[0].Flops
	for _, rs := range res.Ranks {
		if rs.Flops < minF {
			minF = rs.Flops
		}
		if rs.Flops > maxF {
			maxF = rs.Flops
		}
	}
	if (maxF-minF)/maxF > 0.2 {
		t.Errorf("flop imbalance: min %g max %g", minF, maxF)
	}
}
