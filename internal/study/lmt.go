package study

import (
	"math"

	"repro/internal/decomp"
	"repro/internal/flux"
	"repro/internal/grid"
	"repro/internal/jet"
	"repro/internal/solver"
)

// The serial Lions–Maday–Turinici Parareal iteration: k time slices
// seeded by a coarse sweep of G, stitched by U_{s+1} <- G(U_s^new) +
// F(U_s^old) - G(U_s^old). A slice whose F ran from the exact state hands
// F's output on as is, skipping the correction (G(u)+(F(u)-G(u)) != F(u)
// in floating point). That frontier passes one slice per iteration, so
// after k iterations the result is the serial fine trajectory bitwise.

// propagator advances a fine-grid state across one time slice on its
// own grid — F on the fine grid (c = 1), G on the grid coarsened c-fold
// at up to c-fold longer steps — reseeding the clock on every call.
type propagator struct {
	sl     *solver.Slab
	gf, g  *grid.Grid
	q      *flux.State // the state on g
	c      int
	stable float64 // CFL-stable dt of the t=0 state on g
}

func newPropagator(cfg jet.Config, gf *grid.Grid, c int) (*propagator, error) {
	g := gf
	if c > 1 {
		var err error
		if g, err = grid.NewOffset(gf.Nx/c, gf.Nr/c, gf.Lx, gf.Lr, gf.R0); err != nil {
			return nil, err
		}
	}
	s, err := solver.NewSerialProblemCFL(cfg, nil, g, solver.DefaultCFL)
	if err != nil {
		return nil, err
	}
	return &propagator{sl: s.Slab, gf: gf, g: g, q: flux.NewState(g.Nx, g.Nr), c: c, stable: s.Dt}, nil
}

// eval sets out to the state n fine steps of length dt after in (at step
// s0); G takes ceil(n/c) steps, more if its own stability limit demands.
func (p *propagator) eval(out, in *flux.State, s0, n int, dt float64) {
	m, step := n, dt
	if p.c > 1 {
		m = max((n+p.c-1)/p.c, int(math.Ceil(float64(n)*dt/p.stable)))
		step = float64(n) * dt / float64(m)
	}
	solver.Resample(p.q, p.g, in, p.gf)
	p.sl.LoadState(p.q)
	p.sl.SetClock(s0, float64(s0)*dt, step)
	for range m {
		p.sl.Advance()
	}
	p.sl.StoreState(p.q)
	solver.Resample(out, p.gf, p.q, p.g)
}

// parareal marches cfg's jet on g for steps steps over k slices with a
// c-fold G. It returns the result and each iteration's defect, the max
// L2 change of a slice's initial state or the result (+Inf at first),
// stopping at the first defect <= tol (tol > 0) or after k iterations.
func parareal(cfg jet.Config, g *grid.Grid, steps, k, c int, tol float64) (*flux.State, []float64, error) {
	dec, err := decomp.TimeSlices(steps, k)
	if err != nil {
		return nil, nil, err
	}
	fine, err := newPropagator(cfg, g, 1)
	if err != nil {
		return nil, nil, err
	}
	coarse, err := newPropagator(cfg, g, c)
	if err != nil {
		return nil, nil, err
	}
	dt := fine.sl.Dt
	state := func() *flux.State { return flux.NewState(g.Nx, g.Nr) }
	copyState := func(dst, src *flux.State) { solver.Resample(dst, g, src, g) } // a copy
	var u, f, gOld []*flux.State
	for range k {
		u, f, gOld = append(u, state()), append(f, state()), append(gOld, state())
	}
	// Iteration 0: slice 0 holds the initial condition, every later
	// slice the coarse prediction of its predecessor.
	fine.sl.StoreState(u[0])
	for s := range k {
		if s > 0 {
			copyState(u[s], gOld[s-1])
		}
		s0, n := dec.Range(s)
		coarse.eval(gOld[s], u[s], s0, n, dt)
	}
	// in is what slice s-1 hands to slice s, in the end the result.
	in, gNew, prev := state(), state(), state()
	var defects []float64
	for iter := 1; ; iter++ {
		defect := 0.0
		for s := range k {
			s0, n := dec.Range(s)
			if s >= iter-1 { // slices further behind the frontier are final
				fine.eval(f[s], u[s], s0, n, dt)
			}
			if s > 0 {
				defect = math.Max(defect, defectL2(in, u[s], g))
			}
			if exact := s < iter; exact {
				copyState(in, f[s])
				continue
			}
			coarse.eval(gNew, in, s0, n, dt)
			copyState(u[s], in)
			correct(in, gNew, f[s], gOld[s], g)
			gOld[s], gNew = gNew, gOld[s]
		}
		dTerm := math.Inf(1)
		if iter > 1 {
			dTerm = defectL2(in, prev, g)
		}
		defect = math.Max(defect, dTerm)
		copyState(prev, in)
		defects = append(defects, defect)
		if (tol > 0 && defect <= tol) || iter >= k {
			return in, defects, nil
		}
	}
}

// defectL2 is the L2 norm of the interior delta between two states,
// summed column-major with the components innermost.
func defectL2(a, b *flux.State, g *grid.Grid) float64 {
	sum := 0.0
	for c := range g.Nx {
		for j := range g.Nr {
			for k := range flux.NVar {
				d := a[k].Col(c)[j] - b[k].Col(c)[j]
				sum += d * d
			}
		}
	}
	return math.Sqrt(sum / float64(g.Nx*g.Nr*flux.NVar))
}

// correct sets out = gNew + f - gOld over the interior.
func correct(out, gNew, f, gOld *flux.State, g *grid.Grid) {
	for c := range g.Nx {
		for k := range flux.NVar {
			o, gn, ff, og := out[k].Col(c), gNew[k].Col(c), f[k].Col(c), gOld[k].Col(c)
			for j := range o {
				o[j] = gn[j] + ff[j] - og[j]
			}
		}
	}
}
