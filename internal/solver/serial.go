package solver

import (
	"repro/internal/grid"
	"repro/internal/jet"
)

// Serial is the single-processor reference solver: one slab spanning the
// whole grid, the configuration the paper measures in Figure 2.
type Serial struct {
	*Slab
}

// NewSerial builds the serial solver for the built-in jet with the
// default CFL number.
func NewSerial(cfg jet.Config, g *grid.Grid) (*Serial, error) {
	return NewSerialProblemCFL(cfg, nil, g, DefaultCFL)
}

// DefaultCFL is the Courant number used throughout; the 2-4 MacCormack
// scheme is stable to about 2/3 in one dimension.
const DefaultCFL = 0.4

// NewSerialProblemCFL builds the serial solver for a scenario problem
// (nil prob is the built-in jet) with an explicit CFL number. The slab
// spans the domain: every side is physical, so it has no halo.
func NewSerialProblemCFL(cfg jet.Config, prob *Problem, g *grid.Grid, cfl float64) (*Serial, error) {
	s, err := NewSlabProblem(cfg, prob, g, cfg.Gas(), 0, g.Nx, 0, g.Nr, nil, Fresh)
	if err != nil {
		return nil, err
	}
	s.InitParallelFlow()
	s.Dt = s.StableDt(cfl)
	return &Serial{Slab: s}, nil
}

// Run advances n composite time steps.
func (s *Serial) Run(n int) {
	for i := 0; i < n; i++ {
		s.Advance()
	}
}

// RunControlled advances up to n composite steps under residual-driven
// convergence control. The single slab spans the domain, so its
// partial sums are already the global reduction (nil Reduction).
func (s *Serial) RunControlled(n int, ctl Control) ConvergedRun {
	return s.Slab.RunControlled(n, ctl, nil)
}
