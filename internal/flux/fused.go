package flux

import (
	"repro/internal/field"
	"repro/internal/gas"
)

// This file holds the fused, cache-blocked fast path of the physics
// kernels. Each routine computes bitwise-identical results to the
// reference kernels in flux.go (same per-point arithmetic, same
// evaluation order) but walks the slab as fused column sweeps: the
// stress tile of a column is produced and immediately consumed by the
// flux (and source) loop while it is still resident in L1, instead of
// streaming the whole stress tensor through memory twice. Radial
// stencils run over field.ColGhost slices with the index arithmetic
// hoisted out of the inner loop.
//
// Every inner loop is written in the bounds-check-elimination idiom:
// slices are cut to exact-length windows of the row range up front and
// indexed by a from-zero counter, so the compiler can prove both index
// bounds and elide the per-point checks (verified with
// -gcflags=-d=ssa/check_bce; see DESIGN.md).
//
// The reference kernels in flux.go are retained as the scalar baseline:
// the boundary treatment and the equivalence tests run them, and the
// fused-kernel equivalence tests pin the fast path to them bitwise.

// BlockRows is the radial tile height of the fused stress+flux sweeps.
// A tile of the six stress components is 6*BlockRows*8 bytes = 12 KiB,
// comfortably inside a 32 KiB L1D alongside the primitive columns being
// read, so the consuming flux loop never waits on L2.
const BlockRows = 256

// stressTile is one column tile of the stress tensor and heat fluxes.
// It lives on the caller's stack (12 KiB), so the stress values never
// round-trip through a full-grid array between being produced and being
// consumed by the flux loop of the same tile — and concurrent pfor
// workers each carry their own tile, keeping the kernels race-free.
type stressTile struct {
	txx, trr, tqq, txr, qx, qr [BlockRows]float64
}

// stressColRowsX computes the stress components the axial flux consumes
// (txx, txr, qx) for column i, rows [j0, j1), with per-point arithmetic
// exactly as ComputeStressRows evaluates those components; the unused
// radial components are simply not materialized. Requires
// j1 - j0 <= BlockRows.
func stressColRowsX(mu, kc, hx, hr float64, r []float64, w *State, st *stressTile, i, j0, j1 int) {
	if j0 < 0 || j1 <= j0 {
		return
	}
	n := j1 - j0
	uw, ue := w[IMx].Col(i - 1)[j0:j0+n], w[IMx].Col(i + 1)[j0:j0+n]
	vw, ve := w[IMr].Col(i - 1)[j0:j0+n], w[IMr].Col(i + 1)[j0:j0+n]
	tw, te := w[IE].Col(i - 1)[j0:j0+n], w[IE].Col(i + 1)[j0:j0+n]
	txx, txr, qx := st.txx[:n], st.txr[:n], st.qx[:n]
	rv := r[j0 : j0+n]
	// One equal-length window per radial stencil offset: index o of the
	// "D"/"C"/"U" windows addresses interior rows j0+o-1 / j0+o / j0+o+1.
	// Equal lengths are what lets the compiler elide the stencil reads'
	// bounds checks (offset indexing into one longer window defeats it).
	b := j0 + field.Halo
	ugD, ugU := w[IMx].ColGhost(i)[b-1:][:n:n], w[IMx].ColGhost(i)[b+1:][:n:n]
	vgD, vgU := w[IMr].ColGhost(i)[b-1:][:n:n], w[IMr].ColGhost(i)[b+1:][:n:n]
	vgC := w[IMr].ColGhost(i)[b:][:n:n]
	twoThird := 2.0 / 3.0
	for o := 0; o < n; o++ {
		ux := (ue[o] - uw[o]) * hx
		vx := (ve[o] - vw[o]) * hx
		tx := (te[o] - tw[o]) * hx
		ur := (ugU[o] - ugD[o]) * hr
		vr := (vgU[o] - vgD[o]) * hr
		vor := vgC[o] / rv[o]
		div := ux + vr + vor
		txx[o] = mu * (2*ux - twoThird*div)
		txr[o] = mu * (ur + vx)
		qx[o] = -kc * tx
	}
}

// stressColRowsR computes the stress components the radial flux and
// source consume (trr, tqq, txr, qr) for column i, rows [j0, j1), with
// per-point arithmetic exactly as ComputeStressRows evaluates them.
// Requires j1 - j0 <= BlockRows.
func stressColRowsR(mu, kc, hx, hr float64, r []float64, w *State, st *stressTile, i, j0, j1 int) {
	if j0 < 0 || j1 <= j0 {
		return
	}
	n := j1 - j0
	uw, ue := w[IMx].Col(i - 1)[j0:j0+n], w[IMx].Col(i + 1)[j0:j0+n]
	vw, ve := w[IMr].Col(i - 1)[j0:j0+n], w[IMr].Col(i + 1)[j0:j0+n]
	trr, tqq := st.trr[:n], st.tqq[:n]
	txr, qr := st.txr[:n], st.qr[:n]
	rv := r[j0 : j0+n]
	b := j0 + field.Halo
	ugD, ugU := w[IMx].ColGhost(i)[b-1:][:n:n], w[IMx].ColGhost(i)[b+1:][:n:n]
	vgD, vgU := w[IMr].ColGhost(i)[b-1:][:n:n], w[IMr].ColGhost(i)[b+1:][:n:n]
	tgD, tgU := w[IE].ColGhost(i)[b-1:][:n:n], w[IE].ColGhost(i)[b+1:][:n:n]
	vgC := w[IMr].ColGhost(i)[b:][:n:n]
	twoThird := 2.0 / 3.0
	for o := 0; o < n; o++ {
		ux := (ue[o] - uw[o]) * hx
		vx := (ve[o] - vw[o]) * hx
		ur := (ugU[o] - ugD[o]) * hr
		vr := (vgU[o] - vgD[o]) * hr
		tr := (tgU[o] - tgD[o]) * hr
		vor := vgC[o] / rv[o]
		div := ux + vr + vor
		trr[o] = mu * (2*vr - twoThird*div)
		tqq[o] = mu * (2*vor - twoThird*div)
		txr[o] = mu * (ur + vx)
		qr[o] = -kc * tr
	}
}

// StressFluxX fuses ComputeStressRows and FluxXRows over columns
// [c0, c1), rows [j0, j1): for each column, the stress tile of
// BlockRows rows is computed into stack scratch and immediately
// consumed by the axial flux loop, so the stress tensor never exists as
// a full-grid array. The flux output is bitwise-identical to calling
// the two reference kernels in sequence. Requires primitives valid on
// rows [j0-1, j1+1) of columns [c0-1, c1+1) when viscous.
func StressFluxX(gm gas.Model, dx, dr float64, r []float64, q, w *State, f *State, c0, c1, j0, j1 int, viscous bool) {
	if j0 < 0 || j1 <= j0 {
		return
	}
	stress := viscous && gm.Mu != 0
	mu, kc := gm.Mu, gm.HeatConductivity()
	hx, hr := 0.5/dx, 0.5/dr
	gamma := gm.Gamma
	var st stressTile
	for i := c0; i < c1; i++ {
		for t0 := j0; t0 < j1; t0 += BlockRows {
			t1 := min(t0+BlockRows, j1)
			if stress {
				stressColRowsX(mu, kc, hx, hr, r, w, &st, i, t0, t1)
			}
			m := t1 - t0
			rho, u := w[IRho].Col(i)[t0:t0+m], w[IMx].Col(i)[t0:t0+m]
			v, t := w[IMr].Col(i)[t0:t0+m], w[IE].Col(i)[t0:t0+m]
			e := q[IE].Col(i)[t0 : t0+m]
			f0, f1 := f[IRho].Col(i)[t0:t0+m], f[IMx].Col(i)[t0:t0+m]
			f2, f3 := f[IMr].Col(i)[t0:t0+m], f[IE].Col(i)[t0:t0+m]
			if viscous {
				txx, txr := st.txx[:m], st.txr[:m]
				qx := st.qx[:m]
				for o := 0; o < m; o++ {
					p := rho[o] * t[o] / gamma
					mm := rho[o] * u[o]
					f0[o] = mm
					f1[o] = mm*u[o] + p - txx[o]
					f2[o] = mm*v[o] - txr[o]
					f3[o] = u[o]*(e[o]+p) - u[o]*txx[o] - v[o]*txr[o] + qx[o]
				}
			} else {
				for o := 0; o < m; o++ {
					p := rho[o] * t[o] / gamma
					mm := rho[o] * u[o]
					f0[o] = mm
					f1[o] = mm*u[o] + p
					f2[o] = mm * v[o]
					f3[o] = u[o] * (e[o] + p)
				}
			}
		}
	}
}

// StressFluxRSource fuses ComputeStressRows, FluxRRows and SourceRows
// over columns [c0, c1), rows [j0, j1), tile by tile per column, with
// the stress tile in stack scratch. The flux and source outputs are
// bitwise-identical to the three reference kernels in sequence.
func StressFluxRSource(gm gas.Model, dx, dr float64, r []float64, q, w *State, f *State, src *field.Field, c0, c1, j0, j1 int, viscous bool) {
	if j0 < 0 || j1 <= j0 {
		return
	}
	stress := viscous && gm.Mu != 0
	mu, kc := gm.Mu, gm.HeatConductivity()
	hx, hr := 0.5/dx, 0.5/dr
	gamma := gm.Gamma
	var st stressTile
	for i := c0; i < c1; i++ {
		for t0 := j0; t0 < j1; t0 += BlockRows {
			t1 := min(t0+BlockRows, j1)
			if stress {
				stressColRowsR(mu, kc, hx, hr, r, w, &st, i, t0, t1)
			}
			m := t1 - t0
			rho, u := w[IRho].Col(i)[t0:t0+m], w[IMx].Col(i)[t0:t0+m]
			v, t := w[IMr].Col(i)[t0:t0+m], w[IE].Col(i)[t0:t0+m]
			e := q[IE].Col(i)[t0 : t0+m]
			f0, f1 := f[IRho].Col(i)[t0:t0+m], f[IMx].Col(i)[t0:t0+m]
			f2, f3 := f[IMr].Col(i)[t0:t0+m], f[IE].Col(i)[t0:t0+m]
			rv := r[t0 : t0+m]
			out := src.Col(i)[t0 : t0+m]
			// The source term reuses the flux loop's pressure: p is the
			// same deterministic expression SourceRows evaluates, so one
			// computation feeding both outputs is bitwise-identical to
			// the reference pair of loops.
			if viscous {
				txr, trr := st.txr[:m], st.trr[:m]
				qr, tqq := st.qr[:m], st.tqq[:m]
				for o := 0; o < m; o++ {
					p := rho[o] * t[o] / gamma
					mm := rho[o] * v[o]
					rj := rv[o]
					f0[o] = rj * mm
					f1[o] = rj * (mm*u[o] - txr[o])
					f2[o] = rj * (mm*v[o] + p - trr[o])
					f3[o] = rj * (v[o]*(e[o]+p) - u[o]*txr[o] - v[o]*trr[o] + qr[o])
					out[o] = (p - tqq[o]) / rj
				}
			} else {
				for o := 0; o < m; o++ {
					p := rho[o] * t[o] / gamma
					mm := rho[o] * v[o]
					rj := rv[o]
					f0[o] = rj * mm
					f1[o] = rj * (mm * u[o])
					f2[o] = rj * (mm*v[o] + p)
					f3[o] = rj * (v[o] * (e[o] + p))
					out[o] = p / rj
				}
			}
		}
	}
}
