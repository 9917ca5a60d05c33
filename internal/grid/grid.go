// Package grid defines the structured two-dimensional axisymmetric grid
// used by the jet solver.
//
// The axial coordinate x runs from 0 to Lx over Nx nodes (x_i = i*Dx).
// The radial coordinate r is staggered half a cell off the axis
// (r_j = (j+0.5)*Dr) so that no grid point sits on the r = 0 singularity
// of the cylindrical-coordinate equations; axis symmetry is applied
// through mirrored ghost values instead.
package grid

import "fmt"

// Grid is an immutable description of the computational domain.
type Grid struct {
	Nx, Nr int     // number of nodes in the axial and radial directions
	Lx, Lr float64 // domain extent in jet radii
	Dx, Dr float64 // node spacings
	// R0 is the radial offset of the domain: radial nodes span
	// (R0, R0+Lr). Zero for the jet's axis-anchored grid; a large R0
	// (relative to Lr) makes the metric terms of the axisymmetric
	// equations uniformly small, which planar scenarios (the lid-driven
	// cavity) use to recover Cartesian dynamics to O(Lr/R0) without any
	// kernel changes (see grid.NewOffset).
	R0 float64
	X  []float64
	R  []float64
}

// New builds a grid with nx axial nodes spanning [0, lx] and nr radial
// half-cell nodes spanning (0, lr).
func New(nx, nr int, lx, lr float64) (*Grid, error) {
	if nx < 8 || nr < 4 {
		return nil, fmt.Errorf("grid: need nx >= 8 and nr >= 4, got %dx%d", nx, nr)
	}
	if lx <= 0 || lr <= 0 {
		return nil, fmt.Errorf("grid: domain extents must be positive, got %gx%g", lx, lr)
	}
	g := &Grid{
		Nx: nx, Nr: nr,
		Lx: lx, Lr: lr,
		Dx: lx / float64(nx-1),
		Dr: lr / float64(nr),
		X:  make([]float64, nx),
		R:  make([]float64, nr),
	}
	for i := range g.X {
		g.X[i] = float64(i) * g.Dx
	}
	for j := range g.R {
		g.R[j] = (float64(j) + 0.5) * g.Dr
	}
	return g, nil
}

// NewOffset builds a grid whose radial nodes span (r0, r0+lr) instead
// of starting at the axis: r_j = r0 + (j+0.5)*dr, keeping the half-cell
// stagger so the boundary planes r = r0 and r = r0+lr fall exactly
// between a ghost row and row 0 / Nr-1. With r0 >> lr the axisymmetric
// metric terms (1/r factors, the r-weighting of the radial flux) are
// uniformly O(lr/r0), so planar Cartesian scenarios run on the
// unchanged cylindrical kernels with a controlled geometry error.
func NewOffset(nx, nr int, lx, lr, r0 float64) (*Grid, error) {
	if r0 < 0 {
		return nil, fmt.Errorf("grid: radial offset must be non-negative, got %g", r0)
	}
	g, err := New(nx, nr, lx, lr)
	if err != nil {
		return nil, err
	}
	g.R0 = r0
	for j := range g.R {
		g.R[j] = r0 + (float64(j)+0.5)*g.Dr
	}
	return g, nil
}

// MustNew is New that panics on error; for tests and fixed configs.
func MustNew(nx, nr int, lx, lr float64) *Grid {
	g, err := New(nx, nr, lx, lr)
	if err != nil {
		panic(err)
	}
	return g
}

// Paper returns the grid used throughout the paper's evaluation:
// 250x100 nodes over 50x5 jet radii.
func Paper() *Grid { return MustNew(250, 100, 50, 5) }

// NPoints returns the total number of grid nodes.
func (g *Grid) NPoints() int { return g.Nx * g.Nr }

// String implements fmt.Stringer.
func (g *Grid) String() string {
	return fmt.Sprintf("grid %dx%d over %gx%g radii (dx=%.4g, dr=%.4g)", g.Nx, g.Nr, g.Lx, g.Lr, g.Dx, g.Dr)
}
