package par

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/flux"
	"repro/internal/msg"
	"repro/internal/solver"
)

// TestCheckWideFit pins the validation that guards every Wide(k)
// construction: spans below ext+2 on an axis with interior neighbours
// are rejected with the deepest feasible depth named, everything else
// passes silently.
func TestCheckWideFit(t *testing.T) {
	// Viscous shell grows 12 points per skipped step: depth 2 needs 14.
	if err := CheckWideFit(true, 2, []int{14, 20}, "column"); err != nil {
		t.Errorf("14-column spans reject a 12-point shell: %v", err)
	}
	if err := CheckWideFit(true, 2, []int{13}, "column"); err != nil {
		t.Errorf("a single block has no interior sides, want nil, got %v", err)
	}
	if err := CheckWideFit(true, 1, []int{3, 3}, "column"); err != nil {
		t.Errorf("depth 1 has no shell, want nil, got %v", err)
	}
	err := CheckWideFit(true, 2, []int{20, 13}, "column")
	if err == nil {
		t.Fatal("13-column span accepted a 12-point shell")
	}
	if !strings.Contains(err.Error(), "Wide(1)") {
		t.Errorf("error should name the deepest feasible policy Wide(1): %v", err)
	}
	// Inviscid shell grows 4 points per skipped step: depth 3 needs 10,
	// and a 9-point span can still host depth 2 (4+2).
	err = CheckWideFit(false, 3, []int{20, 9}, "row")
	if err == nil {
		t.Fatal("9-row span accepted an 8-point shell")
	}
	if !strings.Contains(err.Error(), "Wide(2)") || !strings.Contains(err.Error(), "row") {
		t.Errorf("error should name Wide(2) and the row axis: %v", err)
	}
}

// TestWideExchangeSteadyStateAllocs extends the allocation-free
// guarantee to the communication-avoiding schedule: the per-stage
// exchange over an extended slab, the shell refresh, and the
// saved-startup bookkeeping of a skipped stage all reuse the staging
// buffers sized at construction. The peer rank runs the matching
// schedule in a background goroutine (its loop must be allocation-free
// too — AllocsPerRun counts process-wide).
func TestWideExchangeSteadyStateAllocs(t *testing.T) {
	const core, nr, ext = 8, 16, 4
	n := core + ext // one interior side each
	w := msg.NewWorld(2)
	h0 := newRankHalo(w.Comm(0), axialPair(t), 0, n, nr, V5, ext)
	h1 := newRankHalo(w.Comm(1), axialPair(t), 1, n, nr, V5, ext)
	b0 := flux.NewState(n, nr)
	b1 := flux.NewState(n, nr)
	for k := range b0 {
		b0[k].FillAll(1)
		b1[k].FillAll(2)
	}
	go func() {
		for {
			h1.Start(solver.Axial, solver.KPrims, b1)
			h1.Finish(solver.Axial, solver.KPrims, b1)
			h1.Refresh(b1)
			h1.Skip(solver.Axial, solver.KPrims)
		}
	}()
	step := func() {
		h0.Start(solver.Axial, solver.KPrims, b0)
		h0.Finish(solver.Axial, solver.KPrims, b0)
		h0.Refresh(b0)
		h0.Skip(solver.Axial, solver.KPrims)
	}
	step() // prime the message-layer free list
	// The refresh must have landed the neighbour's core data in the
	// right-hand shell columns [n-ext, n).
	if b0[0].At(n-1, 0) != 2 {
		t.Fatal("refresh did not deliver the neighbour's shell columns")
	}
	if h0.dir.Total().SavedStartups == 0 {
		t.Fatal("skipped-stage edge fill booked no saved startups")
	}
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("steady-state wide exchange allocates %.1f times, want 0", allocs)
	}
}

// runHierAllreduce executes one collective on every rank of a fresh
// world under the given node size and returns the per-rank results.
func runHierAllreduce(p, group int, in []float64, op func(r *reducer, x float64) float64) ([]float64, []*reducer, error) {
	grp, combs, err := buildCombiners(group, p)
	if err != nil {
		return nil, nil, err
	}
	w := msg.NewWorld(p)
	out := make([]float64, p)
	reds := make([]*reducer, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		reds[r] = newReducer(w.Comm(r), grp, combs, r)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			out[r] = op(reds[r], in[r])
		}(r)
	}
	wg.Wait()
	return out, reds, nil
}

// TestHierarchicalAllreduceParity checks the two-level collective
// against the flat plan across node sizes, including worlds whose last
// node is smaller and the one-node degenerate case. With exactly
// representable inputs the sum must equal the serial fold bitwise on
// every rank whatever the topology; with arbitrary floats all ranks
// must still agree bitwise; Max is exact everywhere.
func TestHierarchicalAllreduceParity(t *testing.T) {
	for _, c := range []struct{ p, group int }{
		{4, 2}, {4, 4}, {5, 2}, {6, 3}, {8, 4}, {9, 4}, {3, 1},
	} {
		t.Run(fmt.Sprintf("procs%d_group%d", c.p, c.group), func(t *testing.T) {
			in := make([]float64, c.p)
			serial := 0.0
			for r := range in {
				in[r] = float64(r+1) + 0.5
				serial += in[r]
			}
			got, _, err := runHierAllreduce(c.p, c.group, in, (*reducer).Sum)
			if err != nil {
				t.Fatal(err)
			}
			for r, g := range got {
				if g != serial {
					t.Errorf("sum: rank %d got %g, serial fold %g", r, g, serial)
				}
			}

			rng := rand.New(rand.NewSource(int64(c.p*100 + c.group)))
			maxIn := make([]float64, c.p)
			want := math.Inf(-1)
			for r := range maxIn {
				maxIn[r] = rng.NormFloat64()
				if maxIn[r] > want {
					want = maxIn[r]
				}
			}
			gotMax, _, err := runHierAllreduce(c.p, c.group, maxIn, (*reducer).Max)
			if err != nil {
				t.Fatal(err)
			}
			for r, g := range gotMax {
				if g != want {
					t.Errorf("max: rank %d got %g, want %g", r, g, want)
				}
			}

			sumIn := make([]float64, c.p)
			for r := range sumIn {
				sumIn[r] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(20)-10)
			}
			gotSum, _, err := runHierAllreduce(c.p, c.group, sumIn, (*reducer).Sum)
			if err != nil {
				t.Fatal(err)
			}
			for r, g := range gotSum {
				if g != gotSum[0] {
					t.Errorf("sum: rank %d got %x, rank 0 got %x — ranks must agree bitwise",
						r, math.Float64bits(g), math.Float64bits(gotSum[0]))
				}
			}
		})
	}
}

// TestHierarchicalAllreduceTraffic: node members must send no messages
// at all — their contribution travels through the shared-memory
// combiner — while leaders walk the shorter leaders-only plan. That is
// the entire point of the hierarchy.
func TestHierarchicalAllreduceTraffic(t *testing.T) {
	const p, group = 8, 4
	in := make([]float64, p)
	for r := range in {
		in[r] = 1
	}
	_, reds, err := runHierAllreduce(p, group, in, (*reducer).Sum)
	if err != nil {
		t.Fatal(err)
	}
	for r, red := range reds {
		if r%group != 0 {
			if red.T.Startups != 0 || red.T.Bytes != 0 {
				t.Errorf("member rank %d sent traffic %+v, want none", r, red.T)
			}
			continue
		}
		// 2 leaders: a single recursive-doubling round = 1 send + 1 recv.
		if red.T.Startups != 2 {
			t.Errorf("leader rank %d counted %d startups, want 2", r, red.T.Startups)
		}
	}
}

// TestHierarchicalAllreduceSteadyStateAllocs: the combiner path must
// keep the reducer's zero-allocation steady state.
func TestHierarchicalAllreduceSteadyStateAllocs(t *testing.T) {
	const p, group = 4, 2
	grp, combs, err := buildCombiners(group, p)
	if err != nil {
		t.Fatal(err)
	}
	w := msg.NewWorld(p)
	red0 := newReducer(w.Comm(0), grp, combs, 0)
	for r := 1; r < p; r++ {
		red := newReducer(w.Comm(r), grp, combs, r)
		go func(r int) {
			for {
				red.Sum(float64(r))
				red.Max(float64(r))
			}
		}(r)
	}
	collective := func() {
		red0.Sum(1)
		red0.Max(1)
	}
	collective() // prime the message-layer free list
	if allocs := testing.AllocsPerRun(50, collective); allocs != 0 {
		t.Errorf("steady-state hierarchical allreduce allocates %.1f times, want 0", allocs)
	}
}

// TestBuildCombinersErrors: group sizes that cannot tile the world are
// construction errors, not silent fallbacks.
func TestBuildCombinersErrors(t *testing.T) {
	if _, _, err := buildCombiners(5, 4); err == nil {
		t.Error("group 5 accepted on a 4-rank world")
	}
	if _, _, err := buildCombiners(-1, 4); err == nil {
		t.Error("negative group accepted")
	}
	if g, combs, err := buildCombiners(0, 4); err != nil || g != 1 || combs != nil {
		t.Errorf("group 0 should resolve to the flat plan, got g=%d combs=%v err=%v", g, combs, err)
	}
}
