package par

import (
	"fmt"
	"testing"

	"repro/internal/decomp"
	"repro/internal/flux"
	"repro/internal/msg"
	"repro/internal/solver"
)

// axialPair is the 2×1 rank grid of the two-rank column-exchange tests:
// only its neighbour relation matters to the halo, the local widths are
// passed explicitly.
func axialPair(t *testing.T) *decomp.Grid2D {
	t.Helper()
	d, err := decomp.NewGrid2D(16, 16, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// exchangePair returns one complete two-rank exchange of b0/b1 in
// direction d: both ranks start, then both finish.
func exchangePair(d solver.Dir, h0, h1 *rankHalo, b0, b1 *flux.State) func() {
	return func() {
		h0.Start(d, solver.KPrims, b0)
		h1.Start(d, solver.KPrims, b1)
		h0.Finish(d, solver.KPrims, b0)
		h1.Finish(d, solver.KPrims, b1)
	}
}

// TestHaloExchangeSteadyStateAllocs locks in the allocation-free
// exchange path: with the staging buffers sized at construction and the
// message layer recycling payloads, a full two-rank halo exchange
// allocates nothing in steady state — for the grouped (V5) and the
// de-burst (V7) message shapes alike.
func TestHaloExchangeSteadyStateAllocs(t *testing.T) {
	const n, nr = 8, 16
	for _, v := range []Version{V5, V7} {
		t.Run(fmt.Sprintf("V%d", int(v)), func(t *testing.T) {
			w := msg.NewWorld(2)
			h0 := newRankHalo(w.Comm(0), axialPair(t), 0, n, nr, v, 0)
			h1 := newRankHalo(w.Comm(1), axialPair(t), 1, n, nr, v, 0)
			b0 := flux.NewState(n, nr)
			b1 := flux.NewState(n, nr)
			for k := range b0 {
				b0[k].FillAll(1)
				b1[k].FillAll(2)
			}
			exchange := exchangePair(solver.Axial, h0, h1, b0, b1)
			exchange() // prime the message-layer free list
			if b0[0].At(n, 0) != 2 || b1[0].At(-1, 0) != 1 {
				t.Fatal("halo exchange did not deliver neighbour columns")
			}
			if allocs := testing.AllocsPerRun(50, exchange); allocs != 0 {
				t.Errorf("steady-state halo exchange allocates %.1f times, want 0", allocs)
			}
		})
	}
}

// TestRadialExchangeSteadyStateAllocs extends the allocation-free
// guarantee to the 2-D decomposition's row exchanges: two radially
// stacked ranks trading ghost rows allocate nothing in steady state.
func TestRadialExchangeSteadyStateAllocs(t *testing.T) {
	const nx, nrLoc = 8, 8
	d, err := decomp.NewGrid2D(nx, 2*nrLoc, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	w := msg.NewWorld(2)
	h0 := newRankHalo(w.Comm(0), d, 0, nx, nrLoc, V5, 0)
	h1 := newRankHalo(w.Comm(1), d, 1, nx, nrLoc, V5, 0)
	b0 := flux.NewState(nx, nrLoc)
	b1 := flux.NewState(nx, nrLoc)
	for k := range b0 {
		b0[k].FillAll(1)
		b1[k].FillAll(2)
	}
	exchange := exchangePair(solver.Radial, h0, h1, b0, b1)
	exchange() // prime the message-layer free list
	if b0[0].At(0, nrLoc) != 2 || b1[0].At(0, -1) != 1 {
		t.Fatal("radial exchange did not deliver neighbour rows")
	}
	if allocs := testing.AllocsPerRun(50, exchange); allocs != 0 {
		t.Errorf("steady-state radial exchange allocates %.1f times, want 0", allocs)
	}
}

// TestWeightedExchangeSteadyStateAllocs extends the allocation-free
// guarantee to cost-weighted (non-uniform width) slabs on both
// decompositions. The staging buffers are sized per rank at
// construction from that rank's own extent, so unequal neighbours
// exchange without growing anything: axial neighbours share Nr (column
// messages are equal-sized however uneven the widths), and radially
// stacked blocks share Nx (row messages likewise).
func TestWeightedExchangeSteadyStateAllocs(t *testing.T) {
	// Axial: a skewed profile makes rank 0 wide and rank 1 narrow.
	const nx, nr = 16, 12
	ramp := make([]float64, nx)
	for i := range ramp {
		ramp[i] = 1 + 6*float64(i)/float64(nx-1)
	}
	d, err := decomp.WeightedAxial(nx, 2, ramp)
	if err != nil {
		t.Fatal(err)
	}
	w0, w1 := d.Widths()[0], d.Widths()[1]
	if w0 == w1 {
		t.Fatalf("profile did not skew the split: widths %v", d.Widths())
	}
	w := msg.NewWorld(2)
	h0 := newRankHalo(w.Comm(0), axialPair(t), 0, w0, nr, V5, 0)
	h1 := newRankHalo(w.Comm(1), axialPair(t), 1, w1, nr, V5, 0)
	b0 := flux.NewState(w0, nr)
	b1 := flux.NewState(w1, nr)
	for k := range b0 {
		b0[k].FillAll(1)
		b1[k].FillAll(2)
	}
	exchange := exchangePair(solver.Axial, h0, h1, b0, b1)
	exchange() // prime the message-layer free list
	if b0[0].At(w0, 0) != 2 || b1[0].At(-1, 0) != 1 {
		t.Fatal("weighted axial exchange did not deliver neighbour columns")
	}
	if allocs := testing.AllocsPerRun(50, exchange); allocs != 0 {
		t.Errorf("steady-state weighted axial exchange allocates %.1f times, want 0", allocs)
	}

	// Radial: a skewed row profile stacks a tall block under a short one.
	const gnr = 24
	rowRamp := make([]float64, gnr)
	for j := range rowRamp {
		rowRamp[j] = 1 + 6*float64(j)/float64(gnr-1)
	}
	g2, err := decomp.WeightedGrid2D(nx, gnr, 1, 2, nil, rowRamp)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, nr0 := g2.Block(0)
	_, _, _, nr1 := g2.Block(1)
	if nr0 == nr1 {
		t.Fatalf("row profile did not skew the split: heights %d, %d", nr0, nr1)
	}
	w2 := msg.NewWorld(2)
	g0 := newRankHalo(w2.Comm(0), g2, 0, nx, nr0, V5, 0)
	g1 := newRankHalo(w2.Comm(1), g2, 1, nx, nr1, V5, 0)
	c0 := flux.NewState(nx, nr0)
	c1 := flux.NewState(nx, nr1)
	for k := range c0 {
		c0[k].FillAll(1)
		c1[k].FillAll(2)
	}
	rowExchange := exchangePair(solver.Radial, g0, g1, c0, c1)
	rowExchange()
	if c0[0].At(0, nr0) != 2 || c1[0].At(0, -1) != 1 {
		t.Fatal("weighted radial exchange did not deliver neighbour rows")
	}
	if allocs := testing.AllocsPerRun(50, rowExchange); allocs != 0 {
		t.Errorf("steady-state weighted radial exchange allocates %.1f times, want 0", allocs)
	}
}

// TestAllreduceSteadyStateAllocs locks in the allocation-free
// collective: the reduce plan and staging live in the reducer, payload
// buffers recycle through the world's free list, so a steady-state
// allreduce allocates nothing — on the power-of-two topology and the
// folded-remainder one alike. Peer ranks run in background goroutines
// matching collectives forever; AllocsPerRun counts process-wide
// mallocs, so their loops must be (and are) allocation-free too.
func TestAllreduceSteadyStateAllocs(t *testing.T) {
	for _, p := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("procs%d", p), func(t *testing.T) {
			w := msg.NewWorld(p)
			red0 := newReducer(w.Comm(0), 1, nil, 0)
			for r := 1; r < p; r++ {
				red := newReducer(w.Comm(r), 1, nil, r)
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
				t.Errorf("steady-state allreduce allocates %.1f times, want 0", allocs)
			}
		})
	}
}

// TestOverlappedExchangeSteadyStateAllocs covers the Version-6 schedule
// on a 2-D block: both directions' sends initiated up front, receives
// completed later — the split the Version-6 schedule computes the
// interior core in. The staging buffers and the message free list must
// keep this path at zero allocations in steady state, exactly like the
// back-to-back exchange.
func TestOverlappedExchangeSteadyStateAllocs(t *testing.T) {
	const nx, nrLoc = 8, 8
	d, err := decomp.NewGrid2D(2*nx, 2*nrLoc, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	w := msg.NewWorld(4)
	halos := make([]*rankHalo, 4)
	bufs := make([]*flux.State, 4)
	for r := 0; r < 4; r++ {
		halos[r] = newRankHalo(w.Comm(r), d, r, nx, nrLoc, V6, 0)
		bufs[r] = flux.NewState(nx, nrLoc)
		for k := range bufs[r] {
			bufs[r][k].FillAll(float64(r + 1))
		}
	}
	exchange := func() {
		for r := 0; r < 4; r++ {
			halos[r].Start(solver.Axial, solver.KPrims, bufs[r])
			halos[r].Start(solver.Radial, solver.KPrims, bufs[r])
		}
		for r := 0; r < 4; r++ {
			halos[r].Finish(solver.Axial, solver.KPrims, bufs[r])
			halos[r].Finish(solver.Radial, solver.KPrims, bufs[r])
		}
	}
	exchange() // prime the message-layer free list
	if bufs[0][0].At(nx, 0) != 2 || bufs[0][0].At(0, nrLoc) != 3 {
		t.Fatal("overlapped exchange did not deliver neighbour columns and rows")
	}
	if allocs := testing.AllocsPerRun(50, exchange); allocs != 0 {
		t.Errorf("steady-state overlapped 2-D exchange allocates %.1f times, want 0", allocs)
	}
}
