// Package scheme implements the fourth-order (2-4) MacCormack scheme of
// Gottlieb and Turkel [Math. Comp. 30 (1976), 703-723] used by the
// paper: explicit predictor-corrector with one-sided differences over a
// three-point biased stencil, applied to dimensionally split operators.
//
// For the model equation Q_t + F_x = S the two variants are
//
//	L1 predictor: Qb_i    = Q_i - lam*[7(F_{i+1}-F_i) - (F_{i+2}-F_{i+1})] + dt*S_i
//	L1 corrector: Q^{n+1} = (Q_i + Qb_i - lam*[7(Fb_i-Fb_{i-1}) - (Fb_{i-1}-Fb_{i-2})] + dt*Sb_i)/2
//
// with lam = dt/(6 dx); L2 swaps the forward/backward biases. Alternating
// L1 and L2 yields fourth-order spatial accuracy.
package scheme

import (
	"repro/internal/field"
	"repro/internal/flux"
)

// Variant selects the difference bias: L1 uses a forward predictor and
// backward corrector, L2 the reverse.
type Variant int

const (
	L1 Variant = iota
	L2
)

// Other returns the symmetric variant (L1 <-> L2).
func (v Variant) Other() Variant {
	if v == L1 {
		return L2
	}
	return L1
}

func (v Variant) String() string {
	if v == L1 {
		return "L1"
	}
	return "L2"
}

// diffForward returns the biased forward difference
// [7(F_{i+1}-F_i) - (F_{i+2}-F_{i+1})] at offset d (d=+1 axial, handled
// by the caller through column access).
//
// The x-direction loops below are written with explicit column slices so
// the inner (radial) loop is stride-1, mirroring the paper's Version 3+
// memory layout optimization.

// PredictX applies the predictor stage of the axial operator over
// columns [c0, c1): qp = q - lam*D(f), with D the biased one-sided
// difference chosen by the variant. f must be valid on [c0-2, c1+2).
func PredictX(v Variant, lam float64, q, f, qp *flux.State, c0, c1 int) {
	for k := 0; k < flux.NVar; k++ {
		for i := c0; i < c1; i++ {
			qc, out := q[k].Col(i), qp[k].Col(i)
			var fa, fb, fc []float64
			if v == L1 { // forward: i, i+1, i+2
				fa, fb, fc = f[k].Col(i), f[k].Col(i+1), f[k].Col(i+2)
				for j := range out {
					out[j] = qc[j] - lam*(7*(fb[j]-fa[j])-(fc[j]-fb[j]))
				}
			} else { // backward: i-2, i-1, i
				fa, fb, fc = f[k].Col(i), f[k].Col(i-1), f[k].Col(i-2)
				for j := range out {
					out[j] = qc[j] - lam*(7*(fa[j]-fb[j])-(fb[j]-fc[j]))
				}
			}
		}
	}
}

// CorrectX applies the corrector stage of the axial operator over
// columns [c0, c1): qn = (q + qp - lam*Dbar(fp))/2, with the bias
// opposite to the predictor's. fp must be valid on [c0-2, c1+2).
func CorrectX(v Variant, lam float64, q, qp, fp, qn *flux.State, c0, c1 int) {
	for k := 0; k < flux.NVar; k++ {
		for i := c0; i < c1; i++ {
			qc, qpc, out := q[k].Col(i), qp[k].Col(i), qn[k].Col(i)
			if v == L1 { // corrector backward: i-2, i-1, i
				fa, fb, fc := fp[k].Col(i), fp[k].Col(i-1), fp[k].Col(i-2)
				for j := range out {
					out[j] = 0.5 * (qc[j] + qpc[j] - lam*(7*(fa[j]-fb[j])-(fb[j]-fc[j])))
				}
			} else { // corrector forward: i, i+1, i+2
				fa, fb, fc := fp[k].Col(i), fp[k].Col(i+1), fp[k].Col(i+2)
				for j := range out {
					out[j] = 0.5 * (qc[j] + qpc[j] - lam*(7*(fb[j]-fa[j])-(fc[j]-fb[j])))
				}
			}
		}
	}
}

// PredictR applies the predictor stage of the radial operator over
// columns [c0, c1). rg is the radial flux r*g (valid on radial ghost
// rows), rinv[j] = 1/r_j, src the source term S_r/r (radial momentum
// component only), dt the time step, lam = dt/(6 dr).
func PredictR(v Variant, lam, dt float64, rinv []float64, q, rg, qp *flux.State, src *field.Field, c0, c1 int) {
	PredictRRows(v, lam, dt, rinv, q, rg, qp, src, c0, c1, 0, q[0].Nr)
}

// PredictRRows is PredictR restricted to rows [j0, j1) — the
// sub-rectangle form of the Version-6 overlap, which runs the interior
// rows while radial-flux ghost rows are still in flight. rg must be
// valid on rows [j0-2, j1+2).
func PredictRRows(v Variant, lam, dt float64, rinv []float64, q, rg, qp *flux.State, src *field.Field, c0, c1, j0, j1 int) {
	for k := 0; k < flux.NVar; k++ {
		g := rg[k]
		for i := c0; i < c1; i++ {
			qc, out := q[k].Col(i), qp[k].Col(i)
			if v == L1 {
				for j := j0; j < j1; j++ {
					d := 7*(g.At(i, j+1)-g.At(i, j)) - (g.At(i, j+2) - g.At(i, j+1))
					out[j] = qc[j] - lam*d*rinv[j]
				}
			} else {
				for j := j0; j < j1; j++ {
					d := 7*(g.At(i, j)-g.At(i, j-1)) - (g.At(i, j-1) - g.At(i, j-2))
					out[j] = qc[j] - lam*d*rinv[j]
				}
			}
		}
	}
	// Source term: radial momentum only (S/r already divided by r).
	for i := c0; i < c1; i++ {
		sc, out := src.Col(i), qp[flux.IMr].Col(i)
		for j := j0; j < j1; j++ {
			out[j] += dt * sc[j]
		}
	}
}

// CorrectRRows applies the corrector stage of the radial operator over
// columns [c0, c1), rows [j0, j1), with the bias opposite to the
// predictor's. srcp is the source term evaluated from the predicted
// state; rgp must be valid on rows [j0-2, j1+2).
func CorrectRRows(v Variant, lam, dt float64, rinv []float64, q, qp, rgp, qn *flux.State, srcp *field.Field, c0, c1, j0, j1 int) {
	for k := 0; k < flux.NVar; k++ {
		g := rgp[k]
		for i := c0; i < c1; i++ {
			qc, qpc, out := q[k].Col(i), qp[k].Col(i), qn[k].Col(i)
			if v == L1 { // backward
				for j := j0; j < j1; j++ {
					d := 7*(g.At(i, j)-g.At(i, j-1)) - (g.At(i, j-1) - g.At(i, j-2))
					out[j] = 0.5 * (qc[j] + qpc[j] - lam*d*rinv[j])
				}
			} else { // forward
				for j := j0; j < j1; j++ {
					d := 7*(g.At(i, j+1)-g.At(i, j)) - (g.At(i, j+2) - g.At(i, j+1))
					out[j] = 0.5 * (qc[j] + qpc[j] - lam*d*rinv[j])
				}
			}
		}
	}
	for i := c0; i < c1; i++ {
		sc, out := srcp.Col(i), qn[flux.IMr].Col(i)
		for j := j0; j < j1; j++ {
			out[j] += 0.5 * dt * sc[j]
		}
	}
}

// FLOP accounting constants (per grid point, per stage).
const (
	FlopsPredictX = 4 * 7 // 4 components: 3 sub, 2 mul-ish, combine
	FlopsCorrectX = 4 * 9
	FlopsPredictR = 4*8 + 2 // + source add
	FlopsCorrectR = 4*10 + 3
)
