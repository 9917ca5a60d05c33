package scheme

import (
	"repro/internal/field"
	"repro/internal/flux"
	"repro/internal/gas"
)

// This file holds the fast path of the MacCormack stage kernels:
// bitwise-identical arithmetic to the reference kernels in scheme.go,
// restructured for big grids. The radial-stencil loops walk
// field.ColGhost slices (one flat slice per column) instead of calling
// At per point, predictor stages fuse the primitive recovery of the
// predicted state into the same column sweep, and every inner loop is
// written in the bounds-check-elimination idiom — exact-length windows
// indexed from zero (verified with -gcflags=-d=ssa/check_bce; see
// DESIGN.md). The reference kernels remain the scalar baseline that the
// fused-kernel equivalence tests pin these against.

// PredictXPrims applies the predictor stage of the axial operator over
// columns [c0, c1) and, in the same sweep, recovers the primitives of
// the predicted state while its columns are still cache-resident —
// fusing the first pass of the corrector stage into the predictor.
// Equivalent to PredictX followed by flux.Primitives on [c0, c1).
//
// Callers that overwrite a predicted column afterwards (the inflow
// boundary) must recompute that column's primitives.
func PredictXPrims(v Variant, lam float64, gm gas.Model, q, f, qp, wp *flux.State, c0, c1 int) {
	for i := c0; i < c1; i++ {
		for k := 0; k < flux.NVar; k++ {
			out := qp[k].Col(i)
			nr := len(out)
			qc := q[k].Col(i)[:nr]
			if v == L1 { // forward: i, i+1, i+2
				fa := f[k].Col(i)[:nr]
				fb := f[k].Col(i + 1)[:nr]
				fc := f[k].Col(i + 2)[:nr]
				for j := range out {
					out[j] = qc[j] - lam*(7*(fb[j]-fa[j])-(fc[j]-fb[j]))
				}
			} else { // backward: i-2, i-1, i
				fa := f[k].Col(i)[:nr]
				fb := f[k].Col(i - 1)[:nr]
				fc := f[k].Col(i - 2)[:nr]
				for j := range out {
					out[j] = qc[j] - lam*(7*(fa[j]-fb[j])-(fb[j]-fc[j]))
				}
			}
		}
		flux.Primitives(gm, qp, wp, i, i+1)
	}
}

// correctXCol applies the axial corrector to column i, all components.
func correctXCol(v Variant, lam float64, q, qp, fp, qn *flux.State, i int) {
	for k := 0; k < flux.NVar; k++ {
		out := qn[k].Col(i)
		nr := len(out)
		qc, qpc := q[k].Col(i)[:nr], qp[k].Col(i)[:nr]
		if v == L1 { // corrector backward: i-2, i-1, i
			fa := fp[k].Col(i)[:nr]
			fb := fp[k].Col(i - 1)[:nr]
			fc := fp[k].Col(i - 2)[:nr]
			for j := range out {
				out[j] = 0.5 * (qc[j] + qpc[j] - lam*(7*(fa[j]-fb[j])-(fb[j]-fc[j])))
			}
		} else { // corrector forward: i, i+1, i+2
			fa := fp[k].Col(i)[:nr]
			fb := fp[k].Col(i + 1)[:nr]
			fc := fp[k].Col(i + 2)[:nr]
			for j := range out {
				out[j] = 0.5 * (qc[j] + qpc[j] - lam*(7*(fb[j]-fa[j])-(fc[j]-fb[j])))
			}
		}
	}
}

// CorrectXPrims applies the corrector stage of the axial operator over
// columns [c0, c1) and, in the same sweep, recovers the primitives of
// the corrected state into w while each column is still cache-resident.
// Primitives are written only for columns in [wp0, wp1): callers exclude
// the columns a boundary condition rewrites afterwards (and the outflow
// column, whose condition still reads the pre-operator primitives), and
// recompute those columns once the boundary has been applied.
// Equivalent to CorrectX followed by flux.Primitives on [wp0, wp1).
func CorrectXPrims(v Variant, lam float64, gm gas.Model, q, qp, fp, qn, w *flux.State, c0, c1, wp0, wp1 int) {
	for i := c0; i < c1; i++ {
		correctXCol(v, lam, q, qp, fp, qn, i)
		if i >= wp0 && i < wp1 {
			flux.Primitives(gm, qn, w, i, i+1)
		}
	}
}

// predictRCol applies the radial predictor to column i, rows [j0, j1),
// walking the flux column as one ColGhost window. Arithmetic matches
// PredictRRows exactly. The ghost window starts two storage rows below
// interior row j0, so index o+k addresses interior row j0+o+k-2 and
// k = 0..4 spans both stencil biases.
func predictRCol(v Variant, lam, dt float64, rinv []float64, q, rg, qp *flux.State, src *field.Field, i, j0, j1 int) {
	if j0 < 0 || j1 <= j0 {
		return
	}
	n := j1 - j0
	b := j0 + field.Halo
	for k := 0; k < flux.NVar; k++ {
		out := qp[k].Col(i)[j0 : j0+n]
		qc := q[k].Col(i)[j0 : j0+n]
		ri := rinv[j0 : j0+n]
		// One equal-length window per stencil offset (index o of gN
		// addresses interior row j0+o+N), the layout the compiler can
		// prove in-bounds and elide the checks for.
		gg := rg[k].ColGhost(i)
		if v == L1 {
			g0, g1, g2 := gg[b:][:n:n], gg[b+1:][:n:n], gg[b+2:][:n:n]
			for o := 0; o < n; o++ {
				d := 7*(g1[o]-g0[o]) - (g2[o] - g1[o])
				out[o] = qc[o] - lam*d*ri[o]
			}
		} else {
			g0, gm1, gm2 := gg[b:][:n:n], gg[b-1:][:n:n], gg[b-2:][:n:n]
			for o := 0; o < n; o++ {
				d := 7*(g0[o]-gm1[o]) - (gm1[o] - gm2[o])
				out[o] = qc[o] - lam*d*ri[o]
			}
		}
	}
	sc := src.Col(i)[j0 : j0+n]
	out := qp[flux.IMr].Col(i)[j0 : j0+n]
	for o := 0; o < n; o++ {
		out[o] += dt * sc[o]
	}
}

// PredictRRowsPrims applies the radial predictor over columns [c0, c1),
// rows [j0, j1), and recovers the primitives of the predicted state on
// the same rows in the same column sweep. Equivalent to PredictRRows
// followed by flux.PrimitivesRect on that sub-rectangle; the
// inflow-column caveat of PredictXPrims applies.
func PredictRRowsPrims(v Variant, lam, dt float64, gm gas.Model, rinv []float64, q, rg, qp, wp *flux.State, src *field.Field, c0, c1, j0, j1 int) {
	for i := c0; i < c1; i++ {
		predictRCol(v, lam, dt, rinv, q, rg, qp, src, i, j0, j1)
		flux.PrimitivesRect(gm, qp, wp, i, i+1, j0, j1)
	}
}

// PredictRPrims is PredictRRowsPrims over full rows.
func PredictRPrims(v Variant, lam, dt float64, gm gas.Model, rinv []float64, q, rg, qp, wp *flux.State, src *field.Field, c0, c1 int) {
	PredictRRowsPrims(v, lam, dt, gm, rinv, q, rg, qp, wp, src, c0, c1, 0, q[0].Nr)
}

// CorrectRRowsPrims applies the radial corrector over columns [c0, c1),
// rows [j0, j1), and recovers the primitives of the corrected state into
// w in the same column sweep. Primitives are written only for columns in
// [wp0, c1) and rows [0, wj1): callers exclude the inflow column and the
// far-field row their boundary conditions rewrite (the far-field update
// also reads the pre-operator primitives of the top row) and recompute
// those after the boundary has been applied. Equivalent to
// CorrectRRows followed by flux.PrimitivesRect on that sub-rectangle.
func CorrectRRowsPrims(v Variant, lam, dt float64, gm gas.Model, rinv []float64, q, qp, rgp, qn, w *flux.State, srcp *field.Field, c0, c1, j0, j1, wp0, wj1 int) {
	if j0 < 0 || j1 <= j0 {
		return
	}
	n := j1 - j0
	b := j0 + field.Halo
	for i := c0; i < c1; i++ {
		correctRCol(v, lam, dt, rinv, q, qp, rgp, qn, srcp, i, j0, n, b)
		if i >= wp0 {
			flux.PrimitivesRect(gm, qn, w, i, i+1, 0, wj1)
		}
	}
}

// correctRCol applies the radial corrector to column i, rows
// [j0, j0+n), with b the ghost-window base row of j0.
func correctRCol(v Variant, lam, dt float64, rinv []float64, q, qp, rgp, qn *flux.State, srcp *field.Field, i, j0, n, b int) {
	for k := 0; k < flux.NVar; k++ {
		out := qn[k].Col(i)[j0 : j0+n]
		qc := q[k].Col(i)[j0 : j0+n]
		qpc := qp[k].Col(i)[j0 : j0+n]
		ri := rinv[j0 : j0+n]
		gg := rgp[k].ColGhost(i)
		if v == L1 { // backward
			g0, gm1, gm2 := gg[b:][:n:n], gg[b-1:][:n:n], gg[b-2:][:n:n]
			for o := 0; o < n; o++ {
				d := 7*(g0[o]-gm1[o]) - (gm1[o] - gm2[o])
				out[o] = 0.5 * (qc[o] + qpc[o] - lam*d*ri[o])
			}
		} else { // forward
			g0, g1, g2 := gg[b:][:n:n], gg[b+1:][:n:n], gg[b+2:][:n:n]
			for o := 0; o < n; o++ {
				d := 7*(g1[o]-g0[o]) - (g2[o] - g1[o])
				out[o] = 0.5 * (qc[o] + qpc[o] - lam*d*ri[o])
			}
		}
	}
	sc := srcp.Col(i)[j0 : j0+n]
	out := qn[flux.IMr].Col(i)[j0 : j0+n]
	for o := 0; o < n; o++ {
		out[o] += 0.5 * dt * sc[o]
	}
}
