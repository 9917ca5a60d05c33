// Package trace accumulates the workload characterization the paper
// reports in Tables 1 and 2: floating-point operations, communication
// startups, and communication volume, per rank and in aggregate.
package trace

import "fmt"

// Counters accumulates per-rank workload. A Counters value belongs to a
// single goroutine; aggregate with Merge.
type Counters struct {
	Flops    float64 // floating-point operations (analytic kernel counts)
	Startups int64   // message-passing send/receive initiations
	Bytes    int64   // payload bytes communicated
	// RedundantFlops is the share of Flops spent advancing redundant
	// ghost-shell points under a Wide(k) halo policy — work a Fresh run
	// would not do, traded for the startups below. Included in Flops.
	RedundantFlops float64
	// SavedStartups counts the message initiations a per-stage Fresh
	// exchange would have issued on steps a Wide(k) policy skipped — the
	// startup budget the redundant compute buys back.
	SavedStartups int64
}

// AddFlops accumulates floating-point operations.
func (c *Counters) AddFlops(n float64) { c.Flops += n }

// AddMessage accounts one message initiation of n payload bytes.
func (c *Counters) AddMessage(n int) {
	c.Startups++
	c.Bytes += int64(n)
}

// Merge adds other into c.
func (c *Counters) Merge(other Counters) {
	c.Flops += other.Flops
	c.Startups += other.Startups
	c.Bytes += other.Bytes
	c.RedundantFlops += other.RedundantFlops
	c.SavedStartups += other.SavedStartups
}

func (c Counters) String() string {
	return fmt.Sprintf("%.3g flops, %d startups, %.3g MB", c.Flops, c.Startups, float64(c.Bytes)/1e6)
}

// DirCounters splits a rank's message accounting by exchange class,
// extending the paper's Table 1 budget (which is purely axial — the
// decomposition of Section 5 has no radial neighbours) to the 2-D rank
// grid, whose blocks also trade ghost rows with down/up neighbours,
// and to the global-reduction collectives of the convergence
// controller, whose recursive-doubling messages follow the rank
// topology rather than the grid.
type DirCounters struct {
	Axial  Counters // ghost-column exchanges with left/right neighbours
	Radial Counters // ghost-row exchanges with down/up neighbours
	Reduce Counters // allreduce collectives (residual sum, global-dt max)
}

// Merge adds other into d.
func (d *DirCounters) Merge(other DirCounters) {
	d.Axial.Merge(other.Axial)
	d.Radial.Merge(other.Radial)
	d.Reduce.Merge(other.Reduce)
}

// Total returns the class-summed counters.
func (d DirCounters) Total() Counters {
	var t Counters
	t.Merge(d.Axial)
	t.Merge(d.Radial)
	t.Merge(d.Reduce)
	return t
}

func (d DirCounters) String() string {
	return fmt.Sprintf("axial[%v] radial[%v] reduce[%v]", d.Axial, d.Radial, d.Reduce)
}

// WideSpeed returns the conservative per-composite-step corruption
// speed of a stale ghost shell, in grid points per interior side: the
// distance bad boundary data can creep inward during one 2-4 MacCormack
// composite step (both directional operators, predictor + corrector,
// including the viscous stress reach). A Wide(k) policy must carry a
// redundant shell of WideSpeed*(k-1) points so the core stays exact
// across k-1 exchange-free steps. Overestimating the speed costs only
// redundant flops; underestimating it would break bitwise parity, so
// the viscous figure rounds the ~8-point analytic reach up to 12.
func WideSpeed(viscous bool) int {
	if viscous {
		return 12
	}
	return 4
}

// WideExtension returns the redundant-shell width (grid points per
// interior side) a Wide(depth) halo policy needs: WideSpeed*(depth-1).
// Depth <= 1 (Fresh, Lagged) carries no redundant shell.
func WideExtension(viscous bool, depth int) int {
	if depth <= 1 {
		return 0
	}
	return WideSpeed(viscous) * (depth - 1)
}

// PaperFlopsPerPoint returns the paper's Table 1 workload density in
// floating-point operations per grid point per time step: 145,000e6
// total for Navier-Stokes and 77,000e6 for Euler on a 250x100 grid over
// 5000 steps. Our analytic kernel counts are lower (we count arithmetic
// only; the 1995 Fortran measurement includes address and loop
// overhead); the platform simulator uses the paper characterization so
// simulated seconds are comparable with the paper's figures, and
// study.Table1Report prints both.
func PaperFlopsPerPoint(viscous bool) float64 {
	const points = 250 * 100
	const steps = 5000
	if viscous {
		return 145000e6 / (points * steps) // = 1160
	}
	return 77000e6 / (points * steps) // = 616
}

// Characterization is the application profile consumed by the platform
// simulator: everything Table 1 reports, parameterized.
type Characterization struct {
	Name          string
	Viscous       bool
	Nx, Nr        int
	Steps         int
	FlopsPerPoint float64 // per time step
	// Per internal-rank, per time step, per neighbour direction:
	ExchangesPerStep int // grouped sends to one neighbour (4 N-S, 3 Euler)
	ColVarsPerStep   int // column-variables sent to one neighbour (16 N-S, 12 Euler)
	// ColCost is an optional per-column relative cost profile (len Nx,
	// mean ~1); nil means uniform. The co-simulator scales each rank's
	// flops by its owned share of the profile, and
	// decomp.WeightedAxial consumes the same profile to balance it —
	// the Figure 13 busy-time skew and its cure, driven by one vector.
	ColCost []float64
	// ReduceEvery, when positive, adds the convergence controller's
	// global-reduction collectives every ReduceEvery steps: the
	// co-simulator appends ReducesPerMonitor recursive-doubling
	// allreduces (msg.ReducePlan topology, ReduceBytes payload each) to
	// the monitored steps, so the co-simulated platforms pay the
	// collective-latency term of a residual-controlled run. Zero means
	// a fixed-step run with no collectives.
	ReduceEvery int
	// HaloDepth, when > 1, prices a Wide(k) communication-avoiding
	// exchange: ranks run the per-stage exchange program only every
	// HaloDepth steps (preceded by a redundant-shell refresh of
	// WideExtension columns per interior side) and compute-only steps in
	// between, with per-rank flops inflated by the redundant shell.
	// 0 or 1 means the per-stage Fresh cadence.
	HaloDepth int
	// ReduceGroup, when > 1, prices the hierarchical allreduce: ranks
	// are grouped into contiguous shared-memory nodes of ReduceGroup;
	// only node leaders run the (shorter) cross-node recursive-doubling
	// plan, and the intra-node combine is memory-speed (free at this
	// model's resolution). 0 or 1 means the flat plan.
	ReduceGroup int
	// TimeSlices, when > 1, prices a Parareal parallel-in-time run: the
	// processor pool splits into TimeSlices groups, each propagating one
	// slice of [0, Steps] with the fine (spatial) solver, stitched by a
	// serial coarse sweep and slice-boundary state handoffs per
	// correction iteration. 0 or 1 means the pure spatial run.
	TimeSlices int
	// PararealIters is the correction-iteration count a TimeSlices > 1
	// run pays for; 0 means TimeSlices iterations (the exact, worst-case
	// schedule).
	PararealIters int
	// CoarseFactor is the space-and-time coarsening of the Parareal
	// coarse propagator (0 means the backend default of 2; 1 means the
	// coarse sweep runs the fine operator itself).
	CoarseFactor int
}

// ReducesPerMonitor is the number of allreduce collectives one
// monitored step issues: the residual sum and the global-dt max.
const ReducesPerMonitor = 2

// ReduceBytes is the payload of one allreduce message: a single
// float64 scalar.
const ReduceBytes = 8

// BlockCost returns the summed relative cost of columns [i0, i0+n).
// With a nil profile every column costs 1, so it degenerates to n and
// FlopsPerPoint keeps its uniform per-point meaning.
func (ch Characterization) BlockCost(i0, n int) float64 {
	if ch.ColCost == nil {
		return float64(n)
	}
	c := 0.0
	for _, w := range ch.ColCost[i0 : i0+n] {
		c += w
	}
	return c
}

// RampCost returns a linearly increasing per-column profile from 1 to
// ratio, normalized to mean 1 so the characterization's total flops
// are unchanged — a synthetic Figure 13 stressor.
func RampCost(nx int, ratio float64) []float64 {
	w := make([]float64, nx)
	sum := 0.0
	for i := range w {
		w[i] = 1 + (ratio-1)*float64(i)/float64(nx-1)
		sum += w[i]
	}
	mean := sum / float64(nx)
	for i := range w {
		w[i] /= mean
	}
	return w
}

// PaperNS returns the Navier-Stokes characterization of Table 1.
func PaperNS() Characterization {
	return Characterization{
		Name: "Navier-Stokes", Viscous: true,
		Nx: 250, Nr: 100, Steps: 5000,
		FlopsPerPoint:    PaperFlopsPerPoint(true),
		ExchangesPerStep: 4,  // prims, flux, pred-prims, pred-flux
		ColVarsPerStep:   16, // 4 exchanges x 4 vars x ... columns applied separately
	}
}

// PaperEuler returns the Euler characterization of Table 1.
func PaperEuler() Characterization {
	return Characterization{
		Name: "Euler", Viscous: false,
		Nx: 250, Nr: 100, Steps: 5000,
		FlopsPerPoint:    PaperFlopsPerPoint(false),
		ExchangesPerStep: 3,
		ColVarsPerStep:   12,
	}
}

// TotalFlops returns the whole-run floating-point operation count.
func (ch Characterization) TotalFlops() float64 {
	return ch.FlopsPerPoint * float64(ch.Nx*ch.Nr*ch.Steps)
}

// MessageBytes returns the payload of one grouped exchange to one
// neighbour: vars x 2 halo columns x Nr points x 8 bytes.
func (ch Characterization) MessageBytes() int {
	varsPerExchange := ch.ColVarsPerStep / ch.ExchangesPerStep // 4
	return varsPerExchange * 2 * ch.Nr * 8
}

// RankStartups returns the per-rank startup count over the full run for
// an internal rank (two neighbours), counting sends and receives as the
// paper does.
func (ch Characterization) RankStartups() int64 {
	return int64(ch.ExchangesPerStep) * 2 * 2 * int64(ch.Steps)
}

// RankBytes returns the per-rank communicated payload over the full run
// for an internal rank (send direction only, as Table 1 volume).
func (ch Characterization) RankBytes() int64 {
	return int64(ch.ColVarsPerStep) * 2 * int64(ch.Nr) * 8 * int64(ch.Steps)
}

// PararealHandoffBytes returns the payload of one Parareal
// slice-boundary state handoff: the full-grid conservative state, 4
// variables x Nx x Nr points x 8 bytes.
func (ch Characterization) PararealHandoffBytes() int {
	return 4 * ch.Nx * ch.Nr * 8
}

// RefreshBytes returns the payload of one redundant-shell refresh to
// one neighbour under a Wide policy carrying ext extra columns per
// interior side: vars x ext columns x Nr points x 8 bytes.
func (ch Characterization) RefreshBytes(ext int) int {
	varsPerExchange := ch.ColVarsPerStep / ch.ExchangesPerStep // 4
	return varsPerExchange * ext * ch.Nr * 8
}

// RankStartupsAt returns the per-rank startup count over the full run
// for an internal rank (two neighbours) under a Wide(depth) policy:
// per-stage exchanges (and one shell refresh per exchange step) happen
// only on every depth-th step. depth <= 1 reproduces RankStartups.
func (ch Characterization) RankStartupsAt(depth int) int64 {
	if depth <= 1 {
		return ch.RankStartups()
	}
	exchangeSteps := int64((ch.Steps + depth - 1) / depth)
	perStep := int64(ch.ExchangesPerStep)*2*2 + 2*2 // stage exchanges + refresh
	return perStep * exchangeSteps
}
