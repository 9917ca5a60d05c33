// Package bc implements the boundary treatment of the paper's Section 3:
//
//   - Inflow (x = 0): prescribed mean jet profile plus eigenfunction
//     excitation (Dirichlet; the jet core is supersonic).
//   - Outflow (x = Lx): the characteristic formulation of Hayder &
//     Turkel — solve p_t - rho*c*u_t = 0 (subsonic incoming),
//     p_t + rho*c*u_t = R2, p_t - c^2*rho_t = R3, v_t = R4, with the R_i
//     taken from one-sided spatial derivatives of the governing
//     equations, then convert to conservative-variable rates.
//   - Far field (r = Lr): the same characteristic machinery with the
//     radial velocity as the normal component and the incoming
//     characteristic relaxed toward ambient pressure.
//   - Axis (r = 0): handled by parity mirrors in internal/field.
//
// The characteristic updates are applied per split operator: the
// operator normal to the boundary uses the filtered rates; tangential
// operators apply the interior scheme unchanged.
package bc

import (
	"math"

	"repro/internal/field"
	"repro/internal/flux"
	"repro/internal/gas"
	"repro/internal/jet"
)

// Source supplies the primitive inflow column at time t. The jet's
// eigenfunction profile (jet.InflowProfile) is the canonical
// implementation; scenarios register their own (e.g. the channel's
// static parabolic profile).
type Source interface {
	Column(t float64, out []gas.Primitive)
}

// Inflow prescribes a Dirichlet state on a column of the state bundle.
// The assembled conserved column is memoized per time value: the split
// operators apply the same boundary state to the predicted and
// corrected bundles (and to both sweeps of a composite step), so only
// the first application per time level evaluates the source.
type Inflow struct {
	prof Source
	gm   gas.Model

	prim  []gas.Primitive      // scratch primitive column
	col   [flux.NVar][]float64 // memoized conserved column
	lastT float64
	valid bool
}

// NewInflow builds the excited-jet inflow condition for radial nodes r.
func NewInflow(cfg jet.Config, gm gas.Model, r []float64) *Inflow {
	return NewInflowSource(jet.NewEigenfunction(cfg, gm.Gamma).Profile(r), gm, len(r))
}

// NewInflowSource builds an inflow condition over n radial nodes fed by
// an arbitrary primitive source.
func NewInflowSource(src Source, gm gas.Model, n int) *Inflow {
	in := &Inflow{
		prof: src,
		gm:   gm,
		prim: make([]gas.Primitive, n),
	}
	for k := range in.col {
		in.col[k] = make([]float64, n)
	}
	return in
}

// Apply writes the inflow state at time t into local column c of q.
func (in *Inflow) Apply(q *flux.State, c int, t float64) {
	if !in.valid || t != in.lastT {
		in.prof.Column(t, in.prim)
		for j, w := range in.prim {
			cq := in.gm.ToConserved(w)
			in.col[flux.IRho][j] = cq.Rho
			in.col[flux.IMx][j] = cq.Mx
			in.col[flux.IMr][j] = cq.Mr
			in.col[flux.IE][j] = cq.E
		}
		in.lastT, in.valid = t, true
	}
	n := len(in.prim)
	for k := 0; k < flux.NVar; k++ {
		copy(q[k].Col(c)[:n], in.col[k])
	}
}

// charRates converts raw conservative time derivatives (drho, dmx, dmr,
// dE) at a point with primitives (rho,u,v,T) into characteristic-
// filtered conservative rates. un selects the boundary-normal velocity
// component: 0 for x-boundaries (normal velocity u), 1 for r-boundaries
// (normal velocity v). rIn is the override for the incoming
// characteristic p_t - rho*c*un_t (0 for the paper's outflow; a pressure
// relaxation for the far field). If the normal velocity is supersonic,
// no filtering is applied.
func charRates(gm gas.Model, rho, u, v, T float64, d [4]float64, normal int, rIn float64, relax bool) [4]float64 {
	gm1 := gm.Gamma - 1
	c := math.Sqrt(T)
	rhot := d[0]
	mt := d[1]
	nt := d[2]
	et := d[3]
	pt := gm1 * (et - u*mt - v*nt + 0.5*(u*u+v*v)*rhot)
	ut := (mt - u*rhot) / rho
	vt := (nt - v*rhot) / rho

	un, utan := u, v
	unt, utant := ut, vt
	if normal == 1 {
		un, utan = v, u
		unt, utant = vt, ut
	}
	if un >= c && !relax {
		// Supersonic outflow: all characteristics leave the domain.
		return d
	}
	rc := rho * c
	r1 := pt - rc*unt
	r2 := pt + rc*unt
	r3 := pt - c*c*rhot
	r4 := utant
	r1 = rIn // incoming characteristic replaced

	pt = 0.5 * (r1 + r2)
	unt = (r2 - r1) / (2 * rc)
	rhot = (pt - r3) / (c * c)
	utant = r4

	if normal == 1 {
		ut, vt = utant, unt
	} else {
		ut, vt = unt, utant
	}
	mt = rho*ut + u*rhot
	nt = rho*vt + v*rhot
	et = pt/gm1 + 0.5*(u*u+v*v)*rhot + rho*(u*ut+v*vt)
	_ = utan
	return [4]float64{rhot, mt, nt, et}
}

// OutflowX integrates the characteristic boundary equations at local
// column c (the global outflow column) over dt and writes the result
// into qn. q and w are the pre-operator state and primitives; f is the
// axial flux of that state, valid at columns c, c-1, c-2.
func OutflowX(gm gas.Model, dx, dt float64, q, w, f, qn *flux.State, c int) {
	h := 0.5 / dx
	for j := 0; j < q[0].Nr; j++ {
		var d [4]float64
		for k := 0; k < flux.NVar; k++ {
			// Second-order one-sided backward difference of f.
			d[k] = -(3*f[k].At(c, j) - 4*f[k].At(c-1, j) + f[k].At(c-2, j)) * h
		}
		rho := w[flux.IRho].At(c, j)
		u := w[flux.IMx].At(c, j)
		v := w[flux.IMr].At(c, j)
		T := w[flux.IE].At(c, j)
		d = charRates(gm, rho, u, v, T, d, 0, 0, false)
		for k := 0; k < flux.NVar; k++ {
			qn[k].Set(c, j, q[k].At(c, j)+dt*d[k])
		}
	}
}

// FarFieldSigma is the relaxation coefficient of the far-field incoming
// characteristic toward ambient pressure.
const FarFieldSigma = 0.25

// FarFieldR integrates the characteristic boundary equations along the
// top row (j = Nr-1) over dt for columns [c0, c1) and writes the result
// into qn. rg is the radial flux r*g of the pre-operator state (valid at
// rows Nr-1, Nr-2, Nr-3), src the source term S/r, r the radial nodes,
// lr the radial extent used as the relaxation length.
func FarFieldR(gm gas.Model, dr, dt, lr float64, r []float64, q, w, rg *flux.State, src *field.Field, qn *flux.State, c0, c1 int) {
	jb := q[0].Nr - 1
	h := 0.5 / dr
	rinv := 1 / r[jb]
	for i := c0; i < c1; i++ {
		var d [4]float64
		for k := 0; k < flux.NVar; k++ {
			d[k] = -(3*rg[k].At(i, jb) - 4*rg[k].At(i, jb-1) + rg[k].At(i, jb-2)) * h * rinv
		}
		d[flux.IMr] += src.At(i, jb)
		rho := w[flux.IRho].At(i, jb)
		u := w[flux.IMx].At(i, jb)
		v := w[flux.IMr].At(i, jb)
		T := w[flux.IE].At(i, jb)
		p := rho * T / gm.Gamma
		c := math.Sqrt(T)
		rIn := FarFieldSigma * c / lr * (gm.AmbientPressure() - p)
		d = charRates(gm, rho, u, v, T, d, 1, rIn, true)
		for k := 0; k < flux.NVar; k++ {
			qn[k].Set(i, jb, q[k].At(i, jb)+dt*d[k])
		}
	}
}

// FLOP accounting constants (per boundary point).
const (
	FlopsCharPoint = 60 // derivative, transform, filter, back-transform
)
