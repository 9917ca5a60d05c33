package scheme

import (
	"math/rand"
	"testing"

	"repro/internal/field"
	"repro/internal/flux"
	"repro/internal/gas"
)

func randBundle(rng *rand.Rand, s *flux.State) {
	for k := range s {
		f := s[k]
		for i := -field.Halo; i < f.Nx+field.Halo; i++ {
			col := f.ColGhost(i)
			for j := range col {
				col[j] = 0.5 + rng.Float64()
			}
		}
	}
}

func randField(rng *rand.Rand, f *field.Field) {
	for i := -field.Halo; i < f.Nx+field.Halo; i++ {
		col := f.ColGhost(i)
		for j := range col {
			col[j] = rng.Float64() - 0.5
		}
	}
}

func statesEqual(t *testing.T, name string, seed int64, a, b *flux.State) {
	t.Helper()
	for k := range a {
		if !a[k].Equal(b[k]) {
			t.Fatalf("seed %d: %s component %d differs", seed, name, k)
		}
	}
}

// TestFusedSchemeEquivalence pins the fused MacCormack stage kernels to
// the reference scalar kernels followed by the primitive recovery,
// bitwise, on random sub-rectangles (both variants, boundary-adjacent
// rows included), with and without a primitive range.
func TestFusedSchemeEquivalence(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed + 1000))
		nx := 4 + rng.Intn(17)
		nr := 4 + rng.Intn(17)
		v := Variant(rng.Intn(2))
		gm := gas.Air(0.001)
		lam, dt := 0.01+rng.Float64(), 0.001+0.01*rng.Float64()
		c0 := rng.Intn(nx)
		c1 := c0 + 1 + rng.Intn(nx-c0)
		var j0, j1 int
		switch rng.Intn(3) {
		case 0:
			j0, j1 = 0, nr
		case 1:
			j0, j1 = 0, 1+rng.Intn(nr)
		default:
			j0 = rng.Intn(nr)
			j1 = j0 + 1 + rng.Intn(nr-j0)
		}
		rinv := make([]float64, nr)
		for j := range rinv {
			rinv[j] = 1 / ((float64(j) + 0.5) * 0.1)
		}
		q, f := flux.NewState(nx, nr), flux.NewState(nx, nr)
		randBundle(rng, q)
		randBundle(rng, f)
		src := field.New(nx, nr)
		randField(rng, src)
		qpRef, qpFast := flux.NewState(nx, nr), flux.NewState(nx, nr)
		wpRef, wpFast := flux.NewState(nx, nr), flux.NewState(nx, nr)
		qnRef, qnFast := flux.NewState(nx, nr), flux.NewState(nx, nr)

		// Axial predictor fused with primitive recovery.
		PredictX(v, lam, q, f, qpRef, c0, c1)
		flux.Primitives(gm, qpRef, wpRef, c0, c1)
		PredictXPrims(v, lam, gm, q, f, qpFast, wpFast, c0, c1)
		statesEqual(t, "PredictXPrims qp", seed, qpRef, qpFast)
		statesEqual(t, "PredictXPrims wp", seed, wpRef, wpFast)

		// Axial corrector alone: the fused kernel with an empty
		// primitive range (wp0 == wp1).
		CorrectX(v, lam, q, qpRef, f, qnRef, c0, c1)
		CorrectXPrims(v, lam, gm, q, qpRef, f, qnFast, wpFast, c0, c1, c0, c0)
		statesEqual(t, "CorrectXPrims (no prims)", seed, qnRef, qnFast)

		// Radial predictor fused with prims on the sub-rectangle, then
		// on full rows.
		PredictRRows(v, lam, dt, rinv, q, f, qpRef, src, c0, c1, j0, j1)
		flux.PrimitivesRect(gm, qpRef, wpRef, c0, c1, j0, j1)
		PredictRRowsPrims(v, lam, dt, gm, rinv, q, f, qpFast, wpFast, src, c0, c1, j0, j1)
		statesEqual(t, "PredictRRowsPrims qp", seed, qpRef, qpFast)
		statesEqual(t, "PredictRRowsPrims wp", seed, wpRef, wpFast)

		PredictR(v, lam, dt, rinv, q, f, qpRef, src, c0, c1)
		flux.Primitives(gm, qpRef, wpRef, c0, c1)
		PredictRPrims(v, lam, dt, gm, rinv, q, f, qpFast, wpFast, src, c0, c1)
		statesEqual(t, "PredictRPrims qp", seed, qpRef, qpFast)
		statesEqual(t, "PredictRPrims wp", seed, wpRef, wpFast)

		// Radial corrector alone on the sub-rectangle (wj1 = 0: no
		// primitive rows).
		CorrectRRows(v, lam, dt, rinv, q, qpRef, f, qnRef, src, c0, c1, j0, j1)
		CorrectRRowsPrims(v, lam, dt, gm, rinv, q, qpRef, f, qnFast, wpFast, src, c0, c1, j0, j1, c0, 0)
		statesEqual(t, "CorrectRRowsPrims (no prims)", seed, qnRef, qnFast)

		// Correctors fused with primitive recovery on a sub-range of the
		// written region (the boundary-skip shape the solver uses).
		wp0 := c0 + rng.Intn(c1-c0+1)
		wp1 := wp0 + rng.Intn(c1-wp0+1)
		wRef, wFast := flux.NewState(nx, nr), flux.NewState(nx, nr)
		randBundle(rng, wRef)
		for k := range wRef {
			wFast[k].CopyFrom(wRef[k])
		}
		CorrectX(v, lam, q, qpRef, f, qnRef, c0, c1)
		flux.Primitives(gm, qnRef, wRef, wp0, wp1)
		CorrectXPrims(v, lam, gm, q, qpRef, f, qnFast, wFast, c0, c1, wp0, wp1)
		statesEqual(t, "CorrectXPrims qn", seed, qnRef, qnFast)
		statesEqual(t, "CorrectXPrims w", seed, wRef, wFast)

		wj1 := rng.Intn(j1 + 1)
		CorrectRRows(v, lam, dt, rinv, q, qpRef, f, qnRef, src, c0, c1, j0, j1)
		flux.PrimitivesRect(gm, qnRef, wRef, wp0, c1, 0, wj1)
		CorrectRRowsPrims(v, lam, dt, gm, rinv, q, qpRef, f, qnFast, wFast, src, c0, c1, j0, j1, wp0, wj1)
		statesEqual(t, "CorrectRRowsPrims qn", seed, qnRef, qnFast)
		statesEqual(t, "CorrectRRowsPrims w", seed, wRef, wFast)
	}
}

// TestFusedSchemeWallGhostEquivalence re-pins the fused stage kernels
// on the exact shapes the wall-bounded scenarios drive them with:
// wall-mirror ghosts in the state and flux bundles (instead of the
// random ghosts above), full-width stencils, and the boundary-skip
// write ranges the solver uses next to walls — wp0=1/wp1=nx-1 skipping
// the axial wall nodes and wj1=nr-1 skipping the row under the lid.
// Covers the cavity's planar-offset radii and the channel's
// axis-anchored radii.
func TestFusedSchemeWallGhostEquivalence(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed + 7000))
		nx := 6 + rng.Intn(15)
		nr := 6 + rng.Intn(15)
		v := Variant(rng.Intn(2))
		gm := gas.Air(0.001)
		lam, dt := 0.01+rng.Float64(), 0.001+0.01*rng.Float64()
		dr := 0.1 + rng.Float64()
		r0 := 0.0
		ulid := 0.0
		if seed%2 == 0 {
			r0 = 1e4 // cavity-style planar limit
			ulid = 0.2
		}
		rinv := make([]float64, nr)
		for j := range rinv {
			rinv[j] = 1 / (r0 + (float64(j)+0.5)*dr)
		}
		q, f := flux.NewState(nx, nr), flux.NewState(nx, nr)
		randBundle(rng, q)
		randBundle(rng, f)
		// The solver fills conserved ghosts with the stationary parity
		// maps (the lid enters through the primitive bundle) and flux
		// ghosts with the flux-parity maps plus the affine lid rows.
		for _, b := range []*flux.State{q, f} {
			isFlux := b == f
			flux.WallMirrorColsLeft(b, isFlux)
			flux.WallMirrorColsRight(b, isFlux)
			flux.WallMirrorRowsBottom(b, isFlux)
			if isFlux {
				flux.WallMirrorRowsTop(b, ulid, true)
			} else {
				flux.WallMirrorRowsTop(b, 0, false)
			}
		}
		src := field.New(nx, nr)
		randField(rng, src)

		// Full-domain stencil with wall-skip write ranges.
		c0, c1 := 0, nx
		j0, j1 := 0, nr
		wp0, wp1 := 1, nx-1
		wj1 := nr - 1

		qpRef, qpFast := flux.NewState(nx, nr), flux.NewState(nx, nr)
		wpRef, wpFast := flux.NewState(nx, nr), flux.NewState(nx, nr)
		qnRef, qnFast := flux.NewState(nx, nr), flux.NewState(nx, nr)

		PredictX(v, lam, q, f, qpRef, c0, c1)
		flux.Primitives(gm, qpRef, wpRef, c0, c1)
		PredictXPrims(v, lam, gm, q, f, qpFast, wpFast, c0, c1)
		statesEqual(t, "wall PredictXPrims qp", seed, qpRef, qpFast)
		statesEqual(t, "wall PredictXPrims wp", seed, wpRef, wpFast)

		PredictR(v, lam, dt, rinv, q, f, qpRef, src, c0, c1)
		flux.Primitives(gm, qpRef, wpRef, c0, c1)
		PredictRPrims(v, lam, dt, gm, rinv, q, f, qpFast, wpFast, src, c0, c1)
		statesEqual(t, "wall PredictRPrims qp", seed, qpRef, qpFast)
		statesEqual(t, "wall PredictRPrims wp", seed, wpRef, wpFast)

		wRef, wFast := flux.NewState(nx, nr), flux.NewState(nx, nr)
		randBundle(rng, wRef)
		for k := range wRef {
			wFast[k].CopyFrom(wRef[k])
		}
		CorrectX(v, lam, q, qpRef, f, qnRef, c0, c1)
		flux.Primitives(gm, qnRef, wRef, wp0, wp1)
		CorrectXPrims(v, lam, gm, q, qpRef, f, qnFast, wFast, c0, c1, wp0, wp1)
		statesEqual(t, "wall CorrectXPrims qn", seed, qnRef, qnFast)
		statesEqual(t, "wall CorrectXPrims w", seed, wRef, wFast)

		CorrectRRows(v, lam, dt, rinv, q, qpRef, f, qnRef, src, c0, c1, j0, j1)
		flux.PrimitivesRect(gm, qnRef, wRef, wp0, c1, 0, wj1)
		CorrectRRowsPrims(v, lam, dt, gm, rinv, q, qpRef, f, qnFast, wFast, src, c0, c1, j0, j1, wp0, wj1)
		statesEqual(t, "wall CorrectRRowsPrims qn", seed, qnRef, qnFast)
		statesEqual(t, "wall CorrectRRowsPrims w", seed, wRef, wFast)
	}
}
