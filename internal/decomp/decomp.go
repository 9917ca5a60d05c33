// Package decomp implements the domain decomposition. The paper's
// scheme is blocks along the axial direction only (Section 5), balanced
// to within one column; Grid2D extends it to a px-by-pr rank grid that
// also partitions the radial direction, which cuts per-rank halo
// surface and scales past the Nx/MinWidth rank ceiling of the axial
// split.
package decomp

import "fmt"

// MinWidth is the narrowest legal slab: the 2-4 stencil plus cubic
// boundary extrapolation need four columns.
const MinWidth = 4

// MinHeight is the shortest legal radial block: the 2-4 stencil reaches
// two ghost rows, the axis mirror reads the first two interior rows, and
// the top cubic extrapolation (physical or re-applied after a future
// regrid) reads the four outermost interior rows.
const MinHeight = 4

// Decomposition maps a contiguous global index range to ranks. It is
// direction-agnostic: Axial builds one over columns, Radial over rows.
type Decomposition struct {
	Nx, P  int
	starts []int // len P+1; rank r owns [starts[r], starts[r+1])
}

// split builds balanced contiguous blocks of n indices over p ranks,
// rejecting blocks shorter than min.
func split(n, p, min int, what string) (*Decomposition, error) {
	if p < 1 {
		return nil, fmt.Errorf("decomp: need at least one rank, got %d", p)
	}
	if n/p < min {
		return nil, fmt.Errorf("decomp: %d %s over %d ranks leaves blocks shorter than %d", n, what, p, min)
	}
	d := &Decomposition{Nx: n, P: p, starts: make([]int, p+1)}
	base, rem := n/p, n%p
	pos := 0
	for r := 0; r < p; r++ {
		d.starts[r] = pos
		pos += base
		if r < rem {
			pos++
		}
	}
	d.starts[p] = pos
	return d, nil
}

// Axial splits nx columns over p ranks in contiguous balanced blocks.
func Axial(nx, p int) (*Decomposition, error) {
	return split(nx, p, MinWidth, "columns")
}

// Radial splits nr rows over p ranks in contiguous balanced blocks.
func Radial(nr, p int) (*Decomposition, error) {
	return split(nr, p, MinHeight, "rows")
}

// TimeSlices splits a step range [0, steps) over k time slices in
// contiguous balanced blocks — the parallel-in-time (Parareal) analogue
// of Axial, used by the co-simulated schedule and the serial Parareal
// study. A slice must hold at least one step; there is no stencil
// along the time axis, so no wider minimum applies.
func TimeSlices(steps, k int) (*Decomposition, error) {
	return split(steps, k, 1, "steps")
}

// Range returns the owned column range [i0, i0+n) of rank r.
func (d *Decomposition) Range(r int) (i0, n int) {
	return d.starts[r], d.starts[r+1] - d.starts[r]
}

// Owner returns the rank owning global column i.
func (d *Decomposition) Owner(i int) int {
	if i < 0 || i >= d.Nx {
		panic(fmt.Sprintf("decomp: column %d outside [0,%d)", i, d.Nx))
	}
	lo, hi := 0, d.P-1
	for lo < hi {
		mid := (lo + hi) / 2
		if d.starts[mid+1] <= i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Widths returns the per-rank column counts.
func (d *Decomposition) Widths() []int {
	w := make([]int, d.P)
	for r := range w {
		_, w[r] = d.Range(r)
	}
	return w
}

// Imbalance returns (max-min)/mean of the per-rank widths; the paper's
// Figure 13 shows this is essentially zero for the axial decomposition.
func (d *Decomposition) Imbalance() float64 {
	ws := d.Widths()
	mn, mx, sum := ws[0], ws[0], 0
	for _, w := range ws {
		if w < mn {
			mn = w
		}
		if w > mx {
			mx = w
		}
		sum += w
	}
	mean := float64(sum) / float64(len(ws))
	return float64(mx-mn) / mean
}
