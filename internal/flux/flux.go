// Package flux implements the pointwise physics kernels of the paper's
// Section 2: primitive recovery, the viscous stress tensor and heat flux
// in axisymmetric (x, r) coordinates, the axial flux F (stored without
// the metric factor r, which is constant along x), the radial flux
// rG = r*g, and the cylindrical source term S = (0, 0, p - t_theta, 0).
//
// All kernels operate over a contiguous range of columns [c0, c1) of a
// slab so that the same code serves the serial solver and every
// distributed-memory rank.
package flux

import (
	"repro/internal/field"
	"repro/internal/gas"
)

// Vars indexes the conservative and primitive variable bundles.
const (
	IRho = 0 // density           | primitive: density
	IMx  = 1 // axial momentum    | primitive: axial velocity u
	IMr  = 2 // radial momentum   | primitive: radial velocity v
	IE   = 3 // total energy      | primitive: temperature T
	NVar = 4
)

// State is the conservative variable bundle q = (rho, rho*u, rho*v, E).
// The paper's Q = r*q; the factor r is applied inside the radial
// operator where it varies.
type State = [NVar]*field.Field

// NewState allocates a zeroed variable bundle for an nx-by-nr slab. The
// components share one contiguous field.Set arena (SoA layout), so a
// bundle is a single allocation and adjacent components are adjacent in
// memory.
func NewState(nx, nr int) *State {
	set := field.NewSet(NVar, nx, nr)
	var s State
	for k := range s {
		s[k] = set.Field(k)
	}
	return &s
}

// Stress holds the viscous stress tensor components and heat fluxes.
type Stress struct {
	Txx, Trr, Tqq, Txr *field.Field
	Qx, Qr             *field.Field
}

// NewStress allocates stress workspace for an nx-by-nr slab, all six
// components in one contiguous field.Set arena.
func NewStress(nx, nr int) *Stress {
	set := field.NewSet(6, nx, nr)
	return &Stress{
		Txx: set.Field(0), Trr: set.Field(1),
		Tqq: set.Field(2), Txr: set.Field(3),
		Qx: set.Field(4), Qr: set.Field(5),
	}
}

// Primitives fills w = (rho, u, v, T) from q over columns [c0, c1),
// interior rows. Ghost rows/columns are the caller's responsibility
// (halo exchange, axis mirror, or extrapolation).
func Primitives(gm gas.Model, q, w *State, c0, c1 int) {
	gm1 := gm.Gamma - 1
	for i := c0; i < c1; i++ {
		rho := q[IRho].Col(i)
		// Pin every companion column to len(rho) so the compiler proves
		// all eight accesses in bounds once per column (see DESIGN.md,
		// bounds-check elimination).
		n := len(rho)
		mx, mr, e := q[IMx].Col(i)[:n], q[IMr].Col(i)[:n], q[IE].Col(i)[:n]
		wr, wu, wv := w[IRho].Col(i)[:n], w[IMx].Col(i)[:n], w[IMr].Col(i)[:n]
		wt := w[IE].Col(i)[:n]
		for j := range rho {
			r := rho[j]
			u := mx[j] / r
			v := mr[j] / r
			p := gm1 * (e[j] - 0.5*r*(u*u+v*v))
			wr[j] = r
			wu[j] = u
			wv[j] = v
			wt[j] = gm.Gamma * p / r
		}
	}
}

// PrimitivesRect fills w from q over columns [c0, c1), rows [j0, j1),
// with the same per-point arithmetic as Primitives. The solver's fused
// corrector uses it to re-establish the primitive bundle everywhere a
// boundary condition rewrote the state after the full-column pass.
func PrimitivesRect(gm gas.Model, q, w *State, c0, c1, j0, j1 int) {
	if j0 < 0 || j1 <= j0 {
		return
	}
	gm1 := gm.Gamma - 1
	m := j1 - j0
	for i := c0; i < c1; i++ {
		rho := q[IRho].Col(i)[j0 : j0+m]
		mx, mr := q[IMx].Col(i)[j0:j0+m], q[IMr].Col(i)[j0:j0+m]
		e := q[IE].Col(i)[j0 : j0+m]
		wr, wu := w[IRho].Col(i)[j0:j0+m], w[IMx].Col(i)[j0:j0+m]
		wv, wt := w[IMr].Col(i)[j0:j0+m], w[IE].Col(i)[j0:j0+m]
		for j := range rho {
			r := rho[j]
			u := mx[j] / r
			v := mr[j] / r
			p := gm1 * (e[j] - 0.5*r*(u*u+v*v))
			wr[j] = r
			wu[j] = u
			wv[j] = v
			wt[j] = gm.Gamma * p / r
		}
	}
}

// AxisMirrorPrims applies axis symmetry ghosts to the primitive bundle:
// rho, u, T are even in r; v is odd.
func AxisMirrorPrims(w *State) {
	w[IRho].MirrorAxis(1)
	w[IMx].MirrorAxis(1)
	w[IMr].MirrorAxis(-1)
	w[IE].MirrorAxis(1)
}

// TopExtrapolatePrims fills the far-field ghost rows of the primitive
// bundle by cubic extrapolation.
func TopExtrapolatePrims(w *State) {
	for k := range w {
		w[k].ExtrapolateTop()
	}
}

// ComputeStress fills the stress tensor and heat flux over columns
// [c0, c1). Inner derivatives are central second order (the dissipative
// terms need only second-order accuracy in the 2-4 scheme). Requires
// primitives valid on columns [c0-1, c1+1) and on radial ghost rows.
func ComputeStress(gm gas.Model, dx, dr float64, r []float64, w *State, s *Stress, c0, c1 int) {
	ComputeStressRows(gm, dx, dr, r, w, s, c0, c1, 0, s.Txx.Nr)
}

// ComputeStressRows is ComputeStress restricted to rows [j0, j1) —
// the sub-rectangle form the Version-6 overlap uses to compute an
// interior core while ghost rows are still in flight. Requires
// primitives valid on rows [j0-1, j1+1) of columns [c0-1, c1+1).
func ComputeStressRows(gm gas.Model, dx, dr float64, r []float64, w *State, s *Stress, c0, c1, j0, j1 int) {
	if gm.Mu == 0 {
		return
	}
	mu := gm.Mu
	k := gm.HeatConductivity()
	hx := 0.5 / dx
	hr := 0.5 / dr
	twoThird := 2.0 / 3.0
	for i := c0; i < c1; i++ {
		uw, ue := w[IMx].Col(i-1), w[IMx].Col(i+1)
		vw, ve := w[IMr].Col(i-1), w[IMr].Col(i+1)
		tw, te := w[IE].Col(i-1), w[IE].Col(i+1)
		u, v, t := w[IMx], w[IMr], w[IE]
		txx, trr, tqq, txr := s.Txx.Col(i), s.Trr.Col(i), s.Tqq.Col(i), s.Txr.Col(i)
		qx, qr := s.Qx.Col(i), s.Qr.Col(i)
		for j := j0; j < j1; j++ {
			ux := (ue[j] - uw[j]) * hx
			vx := (ve[j] - vw[j]) * hx
			tx := (te[j] - tw[j]) * hx
			ur := (u.At(i, j+1) - u.At(i, j-1)) * hr
			vr := (v.At(i, j+1) - v.At(i, j-1)) * hr
			tr := (t.At(i, j+1) - t.At(i, j-1)) * hr
			vor := v.At(i, j) / r[j]
			div := ux + vr + vor
			txx[j] = mu * (2*ux - twoThird*div)
			trr[j] = mu * (2*vr - twoThird*div)
			tqq[j] = mu * (2*vor - twoThird*div)
			txr[j] = mu * (ur + vx)
			qx[j] = -k * tx
			qr[j] = -k * tr
		}
	}
}

// FluxX fills the axial flux f (without the metric factor r) over
// columns [c0, c1):
//
//	f = (rho*u, rho*u^2 + p - txx, rho*u*v - txr, u*(E+p) - u*txx - v*txr + qx)
func FluxX(gm gas.Model, q, w *State, s *Stress, f *State, c0, c1 int, viscous bool) {
	FluxXRows(gm, q, w, s, f, c0, c1, 0, f[IRho].Nr, viscous)
}

// FluxXRows is FluxX restricted to rows [j0, j1); the stress tensor
// must be valid on the same sub-rectangle.
func FluxXRows(gm gas.Model, q, w *State, s *Stress, f *State, c0, c1, j0, j1 int, viscous bool) {
	for i := c0; i < c1; i++ {
		rho, u, v, t := w[IRho].Col(i), w[IMx].Col(i), w[IMr].Col(i), w[IE].Col(i)
		e := q[IE].Col(i)
		f0, f1, f2, f3 := f[IRho].Col(i), f[IMx].Col(i), f[IMr].Col(i), f[IE].Col(i)
		if viscous {
			txx, txr, qx := s.Txx.Col(i), s.Txr.Col(i), s.Qx.Col(i)
			for j := j0; j < j1; j++ {
				p := rho[j] * t[j] / gm.Gamma
				m := rho[j] * u[j]
				f0[j] = m
				f1[j] = m*u[j] + p - txx[j]
				f2[j] = m*v[j] - txr[j]
				f3[j] = u[j]*(e[j]+p) - u[j]*txx[j] - v[j]*txr[j] + qx[j]
			}
		} else {
			for j := j0; j < j1; j++ {
				p := rho[j] * t[j] / gm.Gamma
				m := rho[j] * u[j]
				f0[j] = m
				f1[j] = m*u[j] + p
				f2[j] = m * v[j]
				f3[j] = u[j] * (e[j] + p)
			}
		}
	}
}

// FluxR fills the radial flux rg = r*g over columns [c0, c1):
//
//	g = (rho*v, rho*u*v - txr, rho*v^2 + p - trr, v*(E+p) - u*txr - v*trr + qr)
func FluxR(gm gas.Model, r []float64, q, w *State, s *Stress, f *State, c0, c1 int, viscous bool) {
	FluxRRows(gm, r, q, w, s, f, c0, c1, 0, f[IRho].Nr, viscous)
}

// FluxRRows is FluxR restricted to rows [j0, j1); the stress tensor
// must be valid on the same sub-rectangle.
func FluxRRows(gm gas.Model, r []float64, q, w *State, s *Stress, f *State, c0, c1, j0, j1 int, viscous bool) {
	for i := c0; i < c1; i++ {
		rho, u, v, t := w[IRho].Col(i), w[IMx].Col(i), w[IMr].Col(i), w[IE].Col(i)
		e := q[IE].Col(i)
		f0, f1, f2, f3 := f[IRho].Col(i), f[IMx].Col(i), f[IMr].Col(i), f[IE].Col(i)
		if viscous {
			txr, trr, qr := s.Txr.Col(i), s.Trr.Col(i), s.Qr.Col(i)
			for j := j0; j < j1; j++ {
				p := rho[j] * t[j] / gm.Gamma
				m := rho[j] * v[j]
				rj := r[j]
				f0[j] = rj * m
				f1[j] = rj * (m*u[j] - txr[j])
				f2[j] = rj * (m*v[j] + p - trr[j])
				f3[j] = rj * (v[j]*(e[j]+p) - u[j]*txr[j] - v[j]*trr[j] + qr[j])
			}
		} else {
			for j := j0; j < j1; j++ {
				p := rho[j] * t[j] / gm.Gamma
				m := rho[j] * v[j]
				rj := r[j]
				f0[j] = rj * m
				f1[j] = rj * (m * u[j])
				f2[j] = rj * (m*v[j] + p)
				f3[j] = rj * (v[j] * (e[j] + p))
			}
		}
	}
}

// MirrorFluxR applies the axis parity ghosts to the radial flux bundle
// rg: under r -> -r the products r*g have parity (+, +, -, +).
func MirrorFluxR(f *State) {
	f[IRho].MirrorAxis(1)
	f[IMx].MirrorAxis(1)
	f[IMr].MirrorAxis(-1)
	f[IE].MirrorAxis(1)
}

// Source fills src with the cylindrical source term divided by r,
// S/r = (0, 0, (p - tqq)/r, 0), over columns [c0, c1). Only the radial
// momentum component is nonzero; src receives just that component.
func Source(gm gas.Model, r []float64, w *State, s *Stress, src *field.Field, c0, c1 int, viscous bool) {
	SourceRows(gm, r, w, s, src, c0, c1, 0, src.Nr, viscous)
}

// SourceRows is Source restricted to rows [j0, j1).
func SourceRows(gm gas.Model, r []float64, w *State, s *Stress, src *field.Field, c0, c1, j0, j1 int, viscous bool) {
	for i := c0; i < c1; i++ {
		rho, t := w[IRho].Col(i), w[IE].Col(i)
		out := src.Col(i)
		if viscous {
			tqq := s.Tqq.Col(i)
			for j := j0; j < j1; j++ {
				p := rho[j] * t[j] / gm.Gamma
				out[j] = (p - tqq[j]) / r[j]
			}
		} else {
			for j := j0; j < j1; j++ {
				p := rho[j] * t[j] / gm.Gamma
				out[j] = p / r[j]
			}
		}
	}
}

// Hand-counted floating-point operations per grid point for each kernel,
// used by the trace package for Table 1/2 style accounting. Divisions
// and multiplications count as one FLOP each; the CPU timing model
// additionally weights divisions (see internal/cpu).
const (
	FlopsPrims       = 14 // 2 div, 8 mul/add, p, T
	FlopsStress      = 34 // 6 central diffs, divergence, 4 stresses, 2 heat fluxes
	FlopsFluxXVisc   = 17
	FlopsFluxXInvisc = 11
	FlopsFluxRVisc   = 21
	FlopsFluxRInvisc = 15
	FlopsSource      = 4
)
