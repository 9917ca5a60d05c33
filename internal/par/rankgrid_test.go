package par

import (
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/jet"
	"repro/internal/solver"
)

// TestRankGridLaggedRuns: the lagged policy must run the 2-D exchange
// schedule to completion (no deadlock, no divergence) on an uneven
// shape, with both directions active.
func TestRankGridLaggedRuns(t *testing.T) {
	g := grid.MustNew(48, 26, 50, 5)
	r, err := NewRunner(jet.Paper(), g, Options{Px: 2, Pr: 3, Policy: solver.Lagged})
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run(6)
	if res.Diag.HasNaN {
		t.Fatal("lagged 2-D run diverged")
	}
	dir := res.TotalDir()
	// Under Lagged each direction runs four exchanges per composite
	// step: axially the paper's Table 1 budget (prims, flux, pred-prims,
	// pred-flux of the axial sweep), radially the radial sweep's prim
	// and flux pairs. Every neighbour pair costs 2 sends + 2 recvs = 4
	// startups per exchange. The 2x3 grid has 3 axial pairs (one per
	// rank row) and 4 radial pairs (two per rank column).
	steps := int64(res.Steps)
	if want := 4 * 3 * 4 * steps; dir.Axial.Startups != want {
		t.Errorf("axial startups %d, want %d", dir.Axial.Startups, want)
	}
	if want := 4 * 4 * 4 * steps; dir.Radial.Startups != want {
		t.Errorf("radial startups %d, want %d", dir.Radial.Startups, want)
	}
	if res.Dt <= 0 {
		t.Fatal("bad dt")
	}
}

// TestRankGridVersions: the runner accepts V5 and V6 (defaulting V5) on
// every shape, V7 (de-burst is axial-only) iff Pr == 1, rejects unknown
// strategies, and
// under V6 keeps the exact V5 message budget — the overlap changes when
// the Start/Finish halves run, not what they carry.
func TestRankGridVersions(t *testing.T) {
	g := grid.MustNew(48, 26, 50, 5)
	_, err := NewRunner(jet.Paper(), g, Options{Px: 2, Pr: 2, Version: V7})
	if err == nil || !strings.Contains(err.Error(), "Version 7 (de-burst flux messages) is defined for the axial decomposition only") {
		t.Errorf("V7 on Pr > 1: got %v, want the axial-only rejection", err)
	}
	r7, err := NewRunner(jet.Paper(), g, Options{Px: 3, Pr: 1, Version: V7})
	if err != nil {
		t.Fatalf("V7 must be accepted on a Px×1 shape: %v", err)
	}
	// With no radial neighbours every message is axial.
	if dir := r7.Run(2).Ranks[1].Dir; dir.Radial.Startups != 0 || dir.Axial.Startups == 0 {
		t.Errorf("Px×1 direction split: %+v", dir)
	}
	if _, err := NewRunner(jet.Paper(), g, Options{Px: 2, Pr: 2, Version: Version(9)}); err == nil {
		t.Error("unknown version must be rejected")
	}
	r, err := NewRunner(jet.Paper(), g, Options{Px: 2, Pr: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Opt.Version != V5 {
		t.Fatalf("default version %v, want V5", r.Opt.Version)
	}
	const steps = 4
	res5 := r.Run(steps)
	r6, err := NewRunner(jet.Paper(), g, Options{Px: 2, Pr: 2, Version: V6})
	if err != nil {
		t.Fatal(err)
	}
	for _, sl := range r6.Slabs {
		if !sl.Overlap {
			t.Fatal("V6 must enable the slab overlap path")
		}
	}
	res6 := r6.Run(steps)
	c5, c6 := res5.TotalComm(), res6.TotalComm()
	if c5.Startups != c6.Startups || c5.Bytes != c6.Bytes {
		t.Errorf("V6 budget %+v != V5 budget %+v", c6, c5)
	}
	d5, d6 := res5.TotalDir(), res6.TotalDir()
	if d5 != d6 {
		t.Errorf("V6 direction split %+v != V5 %+v", d6, d5)
	}
	// Under the default Lagged policy no serial reference exists, so the
	// overlapped schedule is pinned to the grouped one directly: every
	// ghost a kernel reads is filled from the same data in both.
	f5, f6 := r.GatherState(), r6.GatherState()
	for k := range f5 {
		if !f5[k].Equal(f6[k]) {
			t.Errorf("lagged V6 component %d differs from V5 (max %g)", k, f6[k].MaxAbsDiff(f5[k]))
		}
	}
}

// TestRankGridShapeResolution: explicit, derived, and automatic shapes.
func TestRankGridShapeResolution(t *testing.T) {
	g := grid.MustNew(64, 26, 50, 5)
	r, err := NewRunner(jet.Paper(), g, Options{Procs: 6, Px: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.Opt.Px != 3 || r.Opt.Pr != 2 {
		t.Fatalf("derived shape %dx%d, want 3x2", r.Opt.Px, r.Opt.Pr)
	}
	if _, err := NewRunner(jet.Paper(), g, Options{Procs: 7, Px: 2}); err == nil {
		t.Fatal("px=2 cannot divide 7 ranks")
	}
	if _, err := NewRunner(jet.Paper(), g, Options{Procs: 8, Px: 2, Pr: 2}); err == nil {
		t.Fatal("a 2x2 shape must not silently satisfy a request for 8 ranks")
	}
	if _, err := NewRunner(jet.Paper(), g, Options{Px: 2}); err == nil {
		t.Fatal("px without procs cannot derive a shape")
	}
	if r, err := NewRunner(jet.Paper(), g, Options{Px: 2, Pr: 2}); err != nil || r.Opt.Procs != 4 {
		t.Fatalf("explicit shape alone must run px*pr ranks: %v", err)
	}
	r, err = NewRunner(jet.Paper(), g, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Opt.Px*r.Opt.Pr != 4 {
		t.Fatalf("auto shape %dx%d does not use 4 ranks", r.Opt.Px, r.Opt.Pr)
	}
}
