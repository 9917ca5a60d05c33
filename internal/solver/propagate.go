// Restart surface: clock reseeding plus whole-state load/store between a
// slab and a global-grid conservative bundle, and bilinear resampling
// between grids of different resolution. Together these let a slab act
// as a propagator — seed an initial condition mid-trajectory, advance,
// and read the result back on the global grid (or a coarse companion of
// it) — which is how the serial Parareal loop of internal/study runs its
// fine and coarse sweeps.
package solver

import (
	"repro/internal/flux"
	"repro/internal/grid"
)

// SetClock reseeds the solver's time integration state so the next
// Advance behaves exactly as it would mid-way through a longer serial
// run: Step selects the operator-splitting variant (L1 on even steps, L2
// on odd) and the wide-halo refresh phase, Time positions the
// time-dependent inflow excitation, and dt is the fixed step size. The
// cached primitive bundle is invalidated because it describes whatever
// state the slab held before.
func (s *Slab) SetClock(step int, time, dt float64) {
	s.Step = step
	s.Time = time
	s.Dt = dt
	s.wReady = false
}

// LoadState scatters a global-grid conservative state into the slab's
// entire local rectangle — redundant Wide shell included, since the
// incoming state is exact everywhere and an exactly-filled shell is a
// superset of the partially-decayed shell a continuous run carries (the
// core therefore reads only valid points and the trajectory matches the
// serial one bitwise). Radial ghost rows are rebuilt by the boundary
// conditions of the next Advance; the primitive cache is invalidated.
func (s *Slab) LoadState(full *flux.State) {
	for k := 0; k < flux.NVar; k++ {
		for c := 0; c < s.NxLoc; c++ {
			src := full[k].Col(s.I0 + c)
			copy(s.Q[k].Col(c), src[s.J0:s.J0+s.NrLoc])
		}
	}
	s.wReady = false
}

// StoreState gathers the slab's owned core — columns [ExtL, NxLoc-ExtR)
// by rows [ExtB, NrLoc-ExtT), the region every report path trusts — into
// the matching rectangle of a global-grid conservative state. Writing
// cores from every slab of a decomposition tiles the full grid exactly.
func (s *Slab) StoreState(full *flux.State) {
	c0, c1 := s.ExtL, s.NxLoc-s.ExtR
	r0, r1 := s.ExtB, s.NrLoc-s.ExtT
	for k := 0; k < flux.NVar; k++ {
		for c := c0; c < c1; c++ {
			dst := full[k].Col(s.I0 + c)
			copy(dst[s.J0+r0:s.J0+r1], s.Q[k].Col(c)[r0:r1])
		}
	}
}

// Resample maps a conservative state between two grids of the same
// physical domain by bilinear interpolation on the node coordinates.
// It serves both directions of the Parareal coarse propagator: restrict
// (fine -> coarse) and prolong (coarse -> fine). Identical resolutions
// short-circuit to a direct copy, so a 1:1 "coarse" grid is bitwise
// transparent. Points outside the source node hull (the half-cell bands
// a finer radial stagger reaches past a coarser one) clamp to constant
// extrapolation. Interiors only; ghosts are left for the destination
// solver's boundary conditions.
func Resample(dst *flux.State, dg *grid.Grid, src *flux.State, sg *grid.Grid) {
	if dg.Nx == sg.Nx && dg.Nr == sg.Nr {
		for k := 0; k < flux.NVar; k++ {
			dst[k].CopyFrom(src[k])
		}
		return
	}
	for i := 0; i < dg.Nx; i++ {
		// X spans [0, Lx] at every resolution with X[i] = i*Dx, so the
		// fractional source column is a single division.
		fx := dg.X[i] / sg.Dx
		i0, tx := clampFrac(fx, sg.Nx)
		for k := 0; k < flux.NVar; k++ {
			a := src[k].Col(i0)
			b := src[k].Col(i0 + 1)
			out := dst[k].Col(i)
			for j := 0; j < dg.Nr; j++ {
				// R[j] = R0 + (j+0.5)*Dr, so index distance from the
				// first source node is (r - R[0])/Dr exactly.
				fr := (dg.R[j] - sg.R[0]) / sg.Dr
				j0, tr := clampFrac(fr, sg.Nr)
				lo := a[j0] + tx*(b[j0]-a[j0])
				hi := a[j0+1] + tx*(b[j0+1]-a[j0+1])
				out[j] = lo + tr*(hi-lo)
			}
		}
	}
}

// clampFrac splits a fractional index into a base cell i0 in [0, n-2]
// and a weight t in [0, 1], clamping out-of-hull points to the boundary
// cell with constant extrapolation.
func clampFrac(f float64, n int) (i0 int, t float64) {
	if f <= 0 {
		return 0, 0
	}
	if f >= float64(n-1) {
		return n - 2, 1
	}
	i0 = int(f)
	if i0 > n-2 {
		i0 = n - 2
	}
	return i0, f - float64(i0)
}
