package solver

import (
	"repro/internal/bc"
	"repro/internal/scheme"
)

// This file implements the paper's Version 6: halo sends are initiated
// first, the interior portion of each loop (which needs no ghost data)
// runs while messages are in flight, then the exchange is completed and
// the edges are finished. The paper found the gain mostly offset by the
// extra loop setup and the loss of temporal locality from splitting
// each sweep — behaviour this implementation shares, since every kernel
// is invoked twice per stage.
//
// The restructuring is defined for any sub-rectangle slab: each sweep
// splits into a 2-D interior core plus an edge frame. Columns touching
// interior axial ghosts wait for the Axial Finish, rows touching
// in-flight radial ghost rows for the Radial one; physical sides are
// filled at once by startFill (the mirror/extrapolation is local), so
// their edge rows join the core, and the axial-only decomposition
// degenerates to the paper's full-height column split. All loops — core
// and frame alike — are dispatched through s.pfor so the overlap
// composes with the hybrid backend's per-rank DOALL pool, and every
// region runs one of the prebuilt loop bodies (see bindKernels): the
// operators re-point the stage context between fork-joins instead of
// building closures, so the overlapped path is allocation-free too.

// coreRows returns the rows of the stress/flux interior core — the
// rows whose radial ghost dependencies are satisfied before the Radial
// Finish. A physical side's mirror/extrapolation is applied eagerly (it
// is local), so its edge row joins the core; an interior side's ghost
// rows are in flight while the core runs, so its edge row waits in the
// frame — unless this sweep skips the exchange (exchanging=false, the
// lagged case), in which case the ghost rows already hold their lagged
// contents and every row is core.
func (s *Slab) coreRows(exchanging bool) (lo, hi int) {
	lo, hi = 0, s.NrLoc
	if exchanging && !s.Bottom {
		lo = 1
	}
	if exchanging && !s.Top {
		hi = s.NrLoc - 1
	}
	return lo, hi
}

// frameX finishes the axial stress/flux sweep outside the core: the
// edge columns at full height and, on interior radial sides under
// Fresh, the edge rows of the interior columns. The stress/flux bundle
// triple is whatever ctx currently points at; ctx.j0/j1 are clobbered.
func (s *Slab) frameX(s1lo, s1hi, rlo, rhi int) {
	c := &s.ctx
	nr := s.NrLoc
	c.j0, c.j1 = 0, nr
	s.pfor(0, s1lo, s.fnStressFluxX)
	s.pfor(s1hi, s.NxLoc, s.fnStressFluxX)
	if rlo > 0 {
		c.j0, c.j1 = 0, rlo
		s.pfor(s1lo, s1hi, s.fnStressFluxX)
	}
	if rhi < nr {
		c.j0, c.j1 = rhi, nr
		s.pfor(s1lo, s1hi, s.fnStressFluxX)
	}
}

// opXOverlap is the Version-6 axial operator. Ghost fills run in the
// order opX runs them (sends are merely initiated earlier, packing reads
// interior values only, and the physical edges read only owned points
// that are final by then), so the result is bitwise identical to the
// non-overlapped operator.
func (s *Slab) opXOverlap(v scheme.Variant) {
	gm, g := s.Gas, s.Grid
	visc := s.Cfg.Viscous
	n, nr := s.NxLoc, s.NrLoc
	fresh := s.Policy != Lagged // Wide steps reaching here are exchange steps
	c := &s.ctx
	c.v, c.lam, c.visc = v, s.Dt/(6*g.Dx), visc

	// Interior column ranges that touch no ghost data: the stress tensor
	// reaches one column out, the scheme stencil two.
	s1lo, s1hi := 1, n-1
	p2lo, p2hi := 2, n-2
	// The axial sweep exchanges radial ghost rows only under the Fresh
	// policy; lagged rows are already in place and keep every row core.
	rlo, rhi := s.coreRows(fresh)

	// Stage A: predictor with overlapped prim and flux exchanges.
	c.q, c.w = s.Q, s.W
	if !s.wReady {
		s.pfor(0, n, s.fnPrims)
	}
	s.wReady = false
	s.startFill(Axial, KPrims, s.W)
	if fresh {
		s.startFill(Radial, KPrims, s.W)
	} else {
		s.edges(Radial, KPrims, s.W)
	}
	c.f = s.F
	c.j0, c.j1 = rlo, rhi
	s.pfor(s1lo, s1hi, s.fnStressFluxX)
	s.Halo.Finish(Axial, KPrims, s.W)
	if fresh {
		s.Halo.Finish(Radial, KPrims, s.W)
	}
	s.frameX(s1lo, s1hi, rlo, rhi)
	s.startFill(Axial, KFlux, s.F)
	s.pfor(p2lo, p2hi, s.fnPredictX)
	s.Halo.Finish(Axial, KFlux, s.F)
	s.pfor(0, p2lo, s.fnPredictX)
	s.pfor(p2hi, n, s.fnPredictX)
	// Boundary columns (no primitive fixups here: the overlapped stages
	// recompute the full primitive pass at the start of stage B).
	if s.Left {
		if s.leftWall {
			s.wallColumn(s.QP, 0)
		} else {
			s.In.Apply(s.QP, 0, s.Time+s.Dt)
		}
	}
	if s.rightWall {
		s.wallColumn(s.QP, n-1)
	}

	// Stage B: corrector, same structure. As in the non-overlapped
	// operator, Euler skips the predicted-prims exchange (and with it
	// the stress tensor, so the flux runs unsplit).
	c.q, c.w = s.QP, s.WP
	s.pfor(0, n, s.fnPrims)
	c.f = s.FP
	if visc {
		s.startFill(Axial, KPredPrims, s.WP)
		if fresh {
			s.startFill(Radial, KPredPrims, s.WP)
		} else {
			s.edges(Radial, KPredPrims, s.WP)
		}
		c.j0, c.j1 = rlo, rhi
		s.pfor(s1lo, s1hi, s.fnStressFluxX)
		s.Halo.Finish(Axial, KPredPrims, s.WP)
		if fresh {
			s.Halo.Finish(Radial, KPredPrims, s.WP)
		}
		s.frameX(s1lo, s1hi, rlo, rhi)
	} else {
		c.j0, c.j1 = 0, nr
		s.pfor(0, n, s.fnStressFluxX)
	}
	s.startFill(Axial, KPredFlux, s.FP)
	s.pfor(p2lo, p2hi, s.fnCorrectX)
	s.Halo.Finish(Axial, KPredFlux, s.FP)
	s.pfor(0, p2lo, s.fnCorrectX)
	s.pfor(p2hi, n, s.fnCorrectX)

	if s.Left {
		if s.leftWall {
			s.wallColumn(s.QN, 0)
		} else {
			s.In.Apply(s.QN, 0, s.Time+s.Dt)
		}
	}
	if s.Right {
		if s.rightWall {
			s.wallColumn(s.QN, n-1)
		} else {
			bc.OutflowX(gm, g.Dx, s.Dt, s.Q, s.W, s.F, s.QN, n-1)
		}
	}
	s.Q, s.QN = s.QN, s.Q
	s.accountX(visc, n)
}

// frameR finishes the radial stress/flux/source sweep outside the core;
// the bundle triple is whatever ctx points at, ctx.j0/j1 are clobbered.
func (s *Slab) frameR(c1lo, c1hi, rlo, rhi int) {
	c := &s.ctx
	nr := s.NrLoc
	if c1lo > 0 {
		c.j0, c.j1 = 0, nr
		s.pfor(0, c1lo, s.fnStressFluxR)
		s.pfor(c1hi, s.NxLoc, s.fnStressFluxR)
	}
	if rlo > 0 {
		c.j0, c.j1 = 0, rlo
		s.pfor(c1lo, c1hi, s.fnStressFluxR)
	}
	if rhi < nr {
		c.j0, c.j1 = rhi, nr
		s.pfor(c1lo, c1hi, s.fnStressFluxR)
	}
}

// opROverlap is the Version-6 radial operator. The radial direction is
// the sweep direction, so its prim and flux row exchanges run under
// either policy and overlap with the interior rows; the axial prim
// exchanges (Fresh only) overlap with the interior columns. On a
// full-height slab the row exchanges carry no messages and only the
// axial overlap remains — the sweep the original Version 6 left fully
// serialized.
func (s *Slab) opROverlap(v scheme.Variant) {
	gm, g := s.Gas, s.Grid
	visc := s.Cfg.Viscous
	n, nr := s.NxLoc, s.NrLoc
	fresh := s.Policy != Lagged // Wide steps reaching here are exchange steps
	c := &s.ctx
	c.v, c.lam, c.visc = v, s.Dt/(6*g.Dr), visc

	// Column core: axial prim exchanges happen only under Fresh; under
	// Lagged the physical extrapolation is applied eagerly and every
	// column joins the core.
	c1lo, c1hi := 0, n
	if fresh {
		c1lo, c1hi = 1, n-1
	}
	// Row core for the stress/flux loops (ghost rows one out) and for
	// the scheme loops (radial stencil two out).
	rlo, rhi := s.coreRows(true)
	p2lo, p2hi := 2, nr-2

	// Stage A: predictor.
	c.q, c.w = s.Q, s.W
	if !s.wReady {
		s.pfor(0, n, s.fnPrims)
	}
	s.wReady = false
	if fresh {
		s.startFill(Axial, KPrimsR, s.W)
	} else {
		s.edges(Axial, KPrimsR, s.W)
	}
	s.startFill(Radial, KPrimsR, s.W)
	c.f, c.src = s.F, s.Src
	c.j0, c.j1 = rlo, rhi
	s.pfor(c1lo, c1hi, s.fnStressFluxR)
	if fresh {
		s.Halo.Finish(Axial, KPrimsR, s.W)
	}
	s.Halo.Finish(Radial, KPrimsR, s.W)
	s.frameR(c1lo, c1hi, rlo, rhi)
	s.startFill(Radial, KFlux, s.F)
	c.j0, c.j1 = p2lo, p2hi
	s.pfor(0, n, s.fnPredictRRows)
	s.Halo.Finish(Radial, KFlux, s.F)
	s.pfor(0, n, s.fnPredictREdges)
	if s.Left {
		if s.leftWall {
			s.wallColumn(s.QP, 0)
		} else {
			s.In.Apply(s.QP, 0, s.Time+s.Dt)
		}
	}
	if s.rightWall {
		s.wallColumn(s.QP, n-1)
	}

	// Stage B: corrector, same structure.
	c.q, c.w = s.QP, s.WP
	s.pfor(0, n, s.fnPrims)
	if fresh {
		s.startFill(Axial, KPredPrimsR, s.WP)
	} else {
		s.edges(Axial, KPredPrimsR, s.WP)
	}
	s.startFill(Radial, KPredPrimsR, s.WP)
	c.f, c.src = s.FP, s.SrcP
	c.j0, c.j1 = rlo, rhi
	s.pfor(c1lo, c1hi, s.fnStressFluxR)
	if fresh {
		s.Halo.Finish(Axial, KPredPrimsR, s.WP)
	}
	s.Halo.Finish(Radial, KPredPrimsR, s.WP)
	s.frameR(c1lo, c1hi, rlo, rhi)
	s.startFill(Radial, KPredFlux, s.FP)
	c.j0, c.j1 = p2lo, p2hi
	s.pfor(0, n, s.fnCorrectRRows)
	s.Halo.Finish(Radial, KPredFlux, s.FP)
	s.pfor(0, n, s.fnCorrectREdges)

	if s.Top && !s.topWall {
		bc.FarFieldR(gm, g.Dr, s.Dt, g.Lr, s.R, s.Q, s.W, s.F, s.Src, s.QN, 0, n)
	}
	if s.Left {
		if s.leftWall {
			s.wallColumn(s.QN, 0)
		} else {
			s.In.Apply(s.QN, 0, s.Time+s.Dt)
		}
	}
	if s.rightWall {
		s.wallColumn(s.QN, n-1)
	}
	s.Q, s.QN = s.QN, s.Q
	s.accountR(visc, n)
}
