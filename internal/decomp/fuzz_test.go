package decomp

import "testing"

// checkDecomposition asserts the 1-D invariants: monotone contiguous
// starts, full coverage, no overlap, minimum block length, balance to
// within one, and Owner/Range agreement.
func checkDecomposition(t *testing.T, d *Decomposition, n, p, min int) {
	t.Helper()
	pos := 0
	mn, mx := n+1, -1
	for r := 0; r < p; r++ {
		i0, w := d.Range(r)
		if i0 != pos {
			t.Fatalf("rank %d starts at %d, want %d (gap or overlap)", r, i0, pos)
		}
		if w < min {
			t.Fatalf("rank %d block length %d below minimum %d", r, w, min)
		}
		if w < mn {
			mn = w
		}
		if w > mx {
			mx = w
		}
		if d.Owner(i0) != r || d.Owner(i0+w-1) != r {
			t.Fatalf("rank %d: Owner disagrees with Range", r)
		}
		pos += w
	}
	if pos != n {
		t.Fatalf("blocks cover %d indices, want %d", pos, n)
	}
	if mx-mn > 1 {
		t.Fatalf("imbalance: widths span [%d,%d]", mn, mx)
	}
}

// FuzzAxial fuzzes the 1-D splits of both directions: any (n, p) must
// either fail validation or satisfy every invariant. The seed corpus
// holds the edge cases found while developing Grid2D: exact-minimum
// blocks, remainder one short of p, single rank, huge rank counts.
func FuzzAxial(f *testing.F) {
	f.Add(250, 16)
	f.Add(8, 2)
	f.Add(4, 1)
	f.Add(16, 4)   // exactly MinWidth everywhere
	f.Add(17, 4)   // remainder 1
	f.Add(23, 4)   // remainder p-1
	f.Add(64, 15)  // 64/15 = 4 with remainder 4
	f.Add(0, 0)    // both invalid
	f.Add(-3, 2)   // negative extent
	f.Add(100, -1) // negative ranks
	f.Fuzz(func(t *testing.T, n, p int) {
		if n > 1<<20 || p > 1<<20 {
			t.Skip("bounded: the solver never sees million-wide decompositions")
		}
		for _, dir := range []struct {
			min   int
			build func(int, int) (*Decomposition, error)
		}{{MinWidth, Axial}, {MinHeight, Radial}} {
			d, err := dir.build(n, p)
			if err != nil {
				continue // rejected inputs need no invariants
			}
			if p < 1 || n/p < dir.min {
				t.Fatalf("(%d,%d) accepted but violates validation", n, p)
			}
			checkDecomposition(t, d, n, p, dir.min)
		}
	})
}

// FuzzTimeSlices fuzzes the parallel-in-time step partitioning: any
// accepted (steps, k) must satisfy the 1-D invariants with the time
// axis's minimum of one step per slice.
func FuzzTimeSlices(f *testing.F) {
	f.Add(5000, 4)
	f.Add(8, 2) // the golden-case shape
	f.Add(7, 3) // remainder k-1
	f.Add(4, 4) // one step per slice
	f.Add(3, 4) // more slices than steps: rejected
	f.Add(1, 1)
	f.Add(0, 0)  // both invalid
	f.Add(-5, 2) // negative extent
	f.Add(100, -1)
	f.Fuzz(func(t *testing.T, steps, k int) {
		if steps > 1<<20 || k > 1<<20 {
			t.Skip("bounded: runs never see million-step schedules")
		}
		d, err := TimeSlices(steps, k)
		if err == nil {
			if k < 1 || steps/k < 1 {
				t.Fatalf("(%d,%d) accepted but violates validation", steps, k)
			}
			checkDecomposition(t, d, steps, k, 1)
		}
	})
}

// FuzzGrid2D fuzzes the rank grid: any accepted (nx, nr, px, pr) must
// tile the domain exactly, respect both block minima, and have
// symmetric neighbour relations.
func FuzzGrid2D(f *testing.F) {
	f.Add(250, 100, 4, 2)
	f.Add(64, 26, 3, 3) // both directions non-divisible
	f.Add(64, 24, 16, 6)
	f.Add(16, 16, 4, 4) // exact minima both ways
	f.Add(8, 8, 1, 1)
	f.Add(0, 0, 0, 0)
	f.Add(64, 26, -1, 2)
	f.Fuzz(func(t *testing.T, nx, nr, px, pr int) {
		if nx > 1<<12 || nr > 1<<12 || px > 1<<10 || pr > 1<<10 {
			t.Skip("bounded")
		}
		d, err := NewGrid2D(nx, nr, px, pr)
		if err != nil {
			return
		}
		checkDecomposition(t, d.X, nx, px, MinWidth)
		checkDecomposition(t, d.R, nr, pr, MinHeight)
		area := 0
		for r := 0; r < d.Ranks(); r++ {
			ix, ir := d.Coords(r)
			if d.Rank(ix, ir) != r {
				t.Fatalf("rank %d: Coords/Rank roundtrip broken", r)
			}
			_, w, _, h := d.Block(r)
			area += w * h
			l, rt, dn, up := d.Neighbors(r)
			for _, nb := range [][2]int{{l, 1}, {rt, 0}, {dn, 3}, {up, 2}} {
				if nb[0] < 0 {
					continue
				}
				back := [4]int{}
				back[0], back[1], back[2], back[3] = d.Neighbors(nb[0])
				if back[nb[1]] != r {
					t.Fatalf("rank %d: neighbour %d does not point back", r, nb[0])
				}
			}
		}
		if area != nx*nr {
			t.Fatalf("blocks cover %d points, want %d", area, nx*nr)
		}
	})
}

// FuzzShape2D fuzzes the automatic shape fit: any accepted shape must
// multiply out to p and itself build a valid grid.
func FuzzShape2D(f *testing.F) {
	f.Add(250, 100, 8)
	f.Add(64, 26, 6)
	f.Add(16, 16, 1)
	f.Add(64, 24, 32) // past the axial-only ceiling
	f.Add(0, 0, 0)
	f.Fuzz(func(t *testing.T, nx, nr, p int) {
		if nx > 1<<12 || nr > 1<<12 || p > 1<<10 {
			t.Skip("bounded")
		}
		px, pr, err := Shape2D(nx, nr, p)
		if err != nil {
			return
		}
		if px*pr != p {
			t.Fatalf("shape %dx%d does not multiply to %d ranks", px, pr, p)
		}
		if _, err := NewGrid2D(nx, nr, px, pr); err != nil {
			t.Fatalf("accepted shape %dx%d fails to build: %v", px, pr, err)
		}
	})
}
