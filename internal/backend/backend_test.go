package backend

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/flux"
	"repro/internal/grid"
	"repro/internal/jet"
	"repro/internal/par"
	"repro/internal/scenario"
	"repro/internal/solver"
)

func testGrid(t *testing.T) *grid.Grid {
	t.Helper()
	return grid.MustNew(64, 24, 50, 5)
}

// testRamp is the skewed cost profile of the weighted parity sweep: a
// steep linear ramp that forces visibly uneven block widths.
func testRamp(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 + 7*float64(i)/float64(n-1)
	}
	return w
}

// rankPools reports whether the named backend gives every rank a DOALL
// pool (the hybrid rows), which the sweeps size at two workers.
func rankPools(name string) bool {
	b, err := Get(name)
	return err == nil && b.(spatialBackend).pool == poolPerRank
}

// parityOptions returns the Options sweep TestBackendParity runs for
// one backend: every parallel width 1..4, plus — for both mp2d
// variants — a set of explicit rank-grid shapes that includes
// non-divisible splits of both nx and nr, plus — for every distributed
// backend — cost-weighted decompositions (explicit skewed profiles and
// the flops/measured balance modes): load balancing must be
// numerics-neutral, whatever blocks it picks. The hybrid rows run every
// point over two workers per rank.
func parityOptions(name string, g *grid.Grid) []Options {
	var opts []Options
	for p := 1; p <= 4; p++ {
		o := Options{Procs: p, Policy: solver.Fresh}
		if rankPools(name) {
			o.Workers = 2
		}
		opts = append(opts, o)
	}
	distributed := name != "serial" && name != "shm"
	if name == "mp2d" || name == "mp2d:v6" {
		// The parity grid is 64x26: px=3 leaves columns 22+21+21 and
		// pr=3 leaves rows 9+9+8, so both directions cover the
		// remainder-block paths; 4x3 = 12 ranks exceeds anything the
		// width sweep reaches. mp2d:v6 runs the identical sweep with
		// the Version-6 cores computed between Start and Finish.
		for _, sh := range [][2]int{{2, 2}, {3, 2}, {2, 3}, {1, 4}, {4, 1}, {3, 3}, {4, 3}} {
			opts = append(opts, Options{Px: sh[0], Pr: sh[1], Policy: solver.Fresh})
		}
		// Weighted rank grids: both directions skewed at once, on a
		// shape with remainder blocks in each.
		opts = append(opts, Options{Px: 3, Pr: 2, Policy: solver.Fresh,
			ColWeights: testRamp(g.Nx), RowWeights: testRamp(g.Nr)})
		opts = append(opts, Options{Px: 2, Pr: 3, Policy: solver.Fresh,
			ColWeights: testRamp(g.Nx), RowWeights: testRamp(g.Nr)})
	}
	if distributed {
		o := Options{Procs: 3, Policy: solver.Fresh, ColWeights: testRamp(g.Nx)}
		if rankPools(name) {
			o.Workers = 2
		}
		if name != "mp2d" && name != "mp2d:v6" {
			opts = append(opts, o)
		}
		for _, balance := range []string{BalanceFlops, BalanceMeasured} {
			b := Options{Procs: 4, Policy: solver.Fresh, Balance: balance}
			if rankPools(name) {
				b.Workers = 2
			}
			opts = append(opts, b)
		}
	}
	return opts
}

// optionsLabel names one sweep point for the subtest tree.
func optionsLabel(o Options) string {
	v := ""
	switch {
	case o.Balance != "":
		v = "-" + o.Balance
	case o.ColWeights != nil || o.RowWeights != nil:
		v = "-weighted"
	}
	if o.Px > 0 || o.Pr > 0 {
		return fmt.Sprintf("px%dxpr%d%s", o.Px, o.Pr, v)
	}
	if o.Workers > 0 {
		return fmt.Sprintf("procs%dx%d%s", o.Procs, o.Workers, v)
	}
	return fmt.Sprintf("procs%d%s", o.Procs, v)
}

// scenarioParityOptions is the reduced sweep the wall-bounded scenarios
// run per backend: the jet already walks every decomposition corner of
// the engine, so cavity and channel concentrate on what their boundary
// conditions change — single-rank and remainder-width multi-rank runs
// on every backend (the hybrid rows over a worker pool), and rank grids
// that cut both the walls and the interior (mp2d and its overlapped
// variant).
func scenarioParityOptions(name string) []Options {
	var opts []Options
	for _, p := range []int{1, 3} {
		o := Options{Procs: p, Policy: solver.Fresh}
		if rankPools(name) {
			o.Workers = 2
		}
		opts = append(opts, o)
	}
	if name == "mp2d" || name == "mp2d:v6" {
		// {3,2} puts remainder blocks in both directions and wall-owning
		// ranks on every side of the rank grid.
		for _, sh := range [][2]int{{2, 2}, {3, 2}} {
			opts = append(opts, Options{Px: sh[0], Pr: sh[1], Policy: solver.Fresh})
		}
	}
	return opts
}

// TestBackendParity is the layer's central guarantee: under the Fresh
// halo policy every registered backend produces bitwise-identical
// fields after N composite steps — the same-arithmetic-everywhere
// property the solver package doc claims — asserted for every backend
// and every scenario. The jet runs the full decomposition sweep
// (every parallel width 1..4; for the 2-D decomposition, a set of
// rank-grid shapes including non-divisible nx/nr splits; for every
// distributed backend, cost-weighted decompositions — explicit skewed
// profiles, the analytic flops mode, and the timing-driven measured
// mode, whose nondeterministic blocks must be just as
// numerics-neutral). The wall-bounded scenarios run the reduced sweep
// of scenarioParityOptions over the identical backends.
//
// The jet's serial reference runs with Options.Scenario empty while its
// sweep points name "jet" explicitly, so the sweep also pins that the
// table's jet row is bitwise-transparent.
func TestBackendParity(t *testing.T) {
	const steps = 6
	for _, scen := range scenario.Names() {
		sc, err := scenario.Get(scen)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sc.Config(jet.Paper())
		g, err := sc.Grid(64, 26)
		if err != nil {
			t.Fatal(err)
		}

		ser, err := Get("serial")
		if err != nil {
			t.Fatal(err)
		}
		refOpts := Options{}
		if scen != "jet" {
			refOpts.Scenario = scen
		}
		ref, err := ser.Run(cfg, g, refOpts, steps)
		if err != nil {
			t.Fatal(err)
		}

		for _, name := range Names() {
			b, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			var sweep []Options
			if scen == "jet" {
				sweep = parityOptions(name, g)
			} else {
				sweep = scenarioParityOptions(name)
			}
			for _, o := range sweep {
				o.Scenario = scen
				t.Run(scen+"/"+name+"/"+optionsLabel(o), func(t *testing.T) {
					res, err := b.Run(cfg, g, o, steps)
					if err != nil {
						t.Fatal(err)
					}
					if res.Scenario != scen {
						t.Fatalf("result tagged %q, want %q", res.Scenario, scen)
					}
					if res.Dt != ref.Dt {
						t.Fatalf("dt %g != serial %g", res.Dt, ref.Dt)
					}
					for k := 0; k < flux.NVar; k++ {
						if !res.Fields[k].Equal(ref.Fields[k]) {
							t.Errorf("component %d differs from serial (max %g)",
								k, res.Fields[k].MaxAbsDiff(ref.Fields[k]))
						}
					}
				})
			}
		}
	}
}

// TestMp2dReportsShapeAndDirections: the 2-D backend must expose its
// resolved rank-grid shape and a per-direction message split whose sum
// matches the aggregate counters.
func TestMp2dReportsShapeAndDirections(t *testing.T) {
	b, err := Get("mp2d")
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Run(jet.Paper(), grid.MustNew(64, 26, 50, 5), Options{Px: 2, Pr: 2, Policy: solver.Fresh}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Px != 2 || res.Pr != 2 || res.Procs != 4 {
		t.Fatalf("shape: px=%d pr=%d procs=%d", res.Px, res.Pr, res.Procs)
	}
	if res.CommDir.Axial.Startups == 0 || res.CommDir.Radial.Startups == 0 {
		t.Fatalf("2x2 run must communicate in both directions: %v", res.CommDir)
	}
	tot := res.CommDir.Total()
	if tot.Startups != res.Comm.Startups || tot.Bytes != res.Comm.Bytes {
		t.Fatalf("direction split %v does not sum to aggregate %v", res.CommDir, res.Comm)
	}
	if len(res.PerRank) != 4 {
		t.Fatalf("%d rank stats", len(res.PerRank))
	}
}

// TestHybridComposesBothStyles: the hybrid backend must actually
// communicate (ranks exchange halos) while reporting its DOALL width.
func TestHybridComposesBothStyles(t *testing.T) {
	b, err := Get("hybrid")
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Run(jet.Paper(), testGrid(t), Options{Procs: 3, Workers: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm.Startups == 0 || res.Comm.Bytes == 0 {
		t.Fatalf("hybrid ran without rank communication: %+v", res.Comm)
	}
	if res.Procs != 3 || res.Workers != 2 {
		t.Fatalf("hybrid shape: procs=%d workers=%d", res.Procs, res.Workers)
	}
	if len(res.PerRank) != 3 {
		t.Fatalf("%d rank stats", len(res.PerRank))
	}
}

// TestRegistry covers lookup, the sorted name list, and the error text
// that doubles as CLI help.
func TestRegistry(t *testing.T) {
	want := []string{"hybrid", "hybrid:v6", "hybrid:v7", "mp2d", "mp2d:v6", "mp:v5", "mp:v6", "mp:v7", "serial", "shm"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("registry: %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry: %v, want %v", got, want)
		}
	}
	for _, n := range want {
		b, err := Get(n)
		if err != nil {
			t.Fatal(err)
		}
		if b.Name() != n {
			t.Errorf("backend %q reports name %q", n, b.Name())
		}
	}
	if _, err := Get("vector"); err == nil || !strings.Contains(err.Error(), "hybrid") {
		t.Errorf("unknown-backend error should list registered names, got %v", err)
	}
}

// TestVersionSelection pins the communication strategy every name
// runs: the version its built engine carries (none for the single-slab
// names), and what that version books under the Lagged policy — V6
// overlaps without changing the V5 message budget, V7 sends each of the
// Navier-Stokes step's two flux exchanges as two one-column messages,
// so it books twice V5's flux startups (6/4 of V5's total over the four
// exchanges) and the same bytes. No name may silently change strategy.
func TestVersionSelection(t *testing.T) {
	g := testGrid(t)
	cfg := jet.Paper()
	want := map[string]par.Version{
		"serial": 0, "shm": 0,
		"mp:v5": par.V5, "mp:v6": par.V6, "mp:v7": par.V7,
		"mp2d": par.V5, "mp2d:v6": par.V6,
		"hybrid": par.V5, "hybrid:v6": par.V6, "hybrid:v7": par.V7,
	}
	if len(want) != len(Names()) {
		t.Fatalf("table covers %d names, backends are %v", len(want), Names())
	}
	// v5 is the Version-5 row each V6 and V7 row's message budget is
	// compared against: the same engine shape and pool.
	v5 := map[string]string{
		"mp:v6": "mp:v5", "mp:v7": "mp:v5", "mp2d:v6": "mp2d",
		"hybrid:v6": "hybrid", "hybrid:v7": "hybrid",
	}
	comm := map[string]Result{}
	for _, name := range Names() {
		be, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		b := be.(spatialBackend)
		o := Options{Procs: 3, Policy: solver.Lagged}
		if rankPools(name) {
			o.Workers = 2
		}
		p, err := b.resolve(cfg, g, o)
		if err != nil {
			t.Fatal(err)
		}
		in, err := b.build(cfg, g, o, p)
		if err != nil {
			t.Fatal(err)
		}
		var got par.Version
		if r, ok := in.engine.(*par.Runner); ok {
			got = r.Opt.Version
		}
		in.Close()
		if got != want[name] {
			t.Errorf("%s builds an engine running Version %d, want %d", name, int(got), int(want[name]))
		}
		if comm[name], err = b.Run(cfg, g, o, 2); err != nil {
			t.Fatal(err)
		}
	}
	for name, ref := range v5 {
		r, r5 := comm[name].Comm, comm[ref].Comm
		wantStartups := r5.Startups
		if want[name] == par.V7 {
			wantStartups = r5.Startups * 3 / 2
		}
		if r5.Startups == 0 || r.Startups != wantStartups || r.Bytes != r5.Bytes {
			t.Errorf("%s books %d startups / %d bytes, want %d / %d (%s: %d / %d)",
				name, r.Startups, r.Bytes, wantStartups, r5.Bytes, ref, r5.Startups, r5.Bytes)
		}
	}
}

// TestBalanceSelection pins the registry-level balance semantics:
// distributed backends honor Options.Balance and explicit profiles,
// backends without a decomposition reject them, unknown modes and
// profile/mode conflicts are errors — never a silent uniform split.
func TestBalanceSelection(t *testing.T) {
	g := testGrid(t)
	cfg := jet.Paper()
	ok := []struct {
		name string
		o    Options
	}{
		{"mp:v5", Options{Procs: 3, Balance: BalanceFlops}},
		{"mp:v5", Options{Procs: 3, Balance: BalanceMeasured}},
		{"mp:v6", Options{Procs: 3, Balance: BalanceFlops}},
		{"mp2d", Options{Px: 2, Pr: 2, Balance: BalanceFlops}},
		{"mp2d:v6", Options{Px: 2, Pr: 2, Balance: BalanceMeasured}},
		{"hybrid", Options{Procs: 2, Workers: 2, Balance: BalanceMeasured}},
		{"serial", Options{Balance: BalanceUniform}}, // explicit uniform is a no-op anywhere
		{"mp:v5", Options{Procs: 3, ColWeights: testRamp(g.Nx)}},
	}
	for _, c := range ok {
		b, err := Get(c.name)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Validate(cfg, g, c.o); err != nil {
			t.Errorf("%s %s: unexpected validate error: %v", c.name, optionsLabel(c.o), err)
			continue
		}
		if _, err := b.Run(cfg, g, c.o, 1); err != nil {
			t.Errorf("%s %s: unexpected run error: %v", c.name, optionsLabel(c.o), err)
		}
	}
	bad := []struct {
		name string
		o    Options
	}{
		{"serial", Options{Balance: BalanceFlops}},
		{"shm", Options{Procs: 2, Balance: BalanceMeasured}},
		{"serial", Options{ColWeights: testRamp(g.Nx)}},
		{"mp:v5", Options{Procs: 2, Balance: "bogus"}},
		{"mp:v5", Options{Procs: 2, Balance: BalanceFlops, ColWeights: testRamp(g.Nx)}},
		{"mp2d", Options{Px: 2, Pr: 2, Balance: "point-count"}},
		// A row profile on a column-only decomposition must be
		// rejected, not silently dropped.
		{"mp:v5", Options{Procs: 2, RowWeights: testRamp(g.Nr)}},
		{"hybrid", Options{Procs: 2, Workers: 2, RowWeights: testRamp(g.Nr)}},
	}
	for _, c := range bad {
		b, err := Get(c.name)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Validate(cfg, g, c.o); err == nil {
			t.Errorf("%s %s: Validate accepted an unsupported balance request", c.name, optionsLabel(c.o))
		}
		if _, err := b.Run(cfg, g, c.o, 1); err == nil {
			t.Errorf("%s %s: Run accepted an unsupported balance request", c.name, optionsLabel(c.o))
		}
	}
	// A profile of the wrong length passes the cheap Validate (which
	// never materializes weights) but must fail in Run.
	b, err := Get("mp:v5")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(cfg, g, Options{Procs: 2, ColWeights: []float64{1, 2, 3}}, 1); err == nil {
		t.Error("mp:v5 accepted a 3-entry profile on a 64-column grid")
	}
}

// TestMeasuredBalanceProbesResolvedShape guards the warm-up probe
// resolution: a rank grid given only as Px/Pr (Procs zero) must probe
// at px axial and pr radial ranks — probing at the unset Procs would
// silently degrade measured balance to the uniform split.
func TestMeasuredBalanceProbesResolvedShape(t *testing.T) {
	g := grid.MustNew(64, 26, 50, 5)
	b, err := Get("mp2d")
	if err != nil {
		t.Fatal(err)
	}
	sb, opts := b.(spatialBackend), Options{Px: 2, Pr: 2, Balance: BalanceMeasured}
	p, err := sb.resolve(jet.Paper(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	o, err := sb.runnerOptions(jet.Paper(), g, opts, p)
	if err != nil {
		t.Fatal(err)
	}
	if o.ColWeights == nil {
		t.Error("measured balance with Px=2 produced no column profile (probe ran at 1 rank?)")
	}
	if o.RowWeights == nil {
		t.Error("measured balance with Pr=2 produced no row profile (probe ran at 1 rank?)")
	}
}

// TestWeightedRunShiftsWork: an explicit increasing cost profile must
// actually move columns — the cheap end gets wider blocks, visible as
// monotonically more per-rank flops on rank 0 than on the last rank.
func TestWeightedRunShiftsWork(t *testing.T) {
	b, err := Get("mp:v5")
	if err != nil {
		t.Fatal(err)
	}
	g := testGrid(t)
	uni, err := b.Run(jet.Paper(), g, Options{Procs: 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	wgt, err := b.Run(jet.Paper(), g, Options{Procs: 4, ColWeights: testRamp(g.Nx)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if wgt.PerRank[0].Flops <= uni.PerRank[0].Flops {
		t.Errorf("rank 0 should own more columns under an increasing profile: %g <= %g",
			wgt.PerRank[0].Flops, uni.PerRank[0].Flops)
	}
	last := len(wgt.PerRank) - 1
	if wgt.PerRank[last].Flops >= uni.PerRank[last].Flops {
		t.Errorf("last rank should own fewer columns under an increasing profile: %g >= %g",
			wgt.PerRank[last].Flops, uni.PerRank[last].Flops)
	}
}

// TestMp2dV6Overlaps: the overlapped 2-D backend must keep the exact
// Version-5 message budget (overlap changes when the halves run, not
// what they carry), report the same shape/direction split, and compute
// the same fields bitwise — on the viscous jet, the Euler jet (no
// predicted-prims exchange) and the cavity (wall columns), on an axial
// and a 2-D rank grid. Under Lagged no serial reference exists, so this
// is the only pin of the overlapped schedule there.
func TestMp2dV6Overlaps(t *testing.T) {
	cavity, err := scenario.Get("cavity")
	if err != nil {
		t.Fatal(err)
	}
	cavityGrid, err := cavity.Grid(64, 26)
	if err != nil {
		t.Fatal(err)
	}
	jetGrid := grid.MustNew(64, 26, 50, 5)
	cases := []struct {
		name     string
		cfg      jet.Config
		g        *grid.Grid
		scenario string
	}{
		{"ns", jet.Paper(), jetGrid, ""},
		{"euler", jet.Euler(), jetGrid, ""},
		{"cavity", cavity.Config(jet.Paper()), cavityGrid, "cavity"},
	}
	b5, _ := Get("mp2d")
	b6, _ := Get("mp2d:v6")
	for _, c := range cases {
		for _, sh := range [][2]int{{3, 1}, {2, 2}} {
			for _, pol := range []solver.HaloPolicy{solver.Lagged, solver.Fresh} {
				name := fmt.Sprintf("%s/%dx%d/%s", c.name, sh[0], sh[1], pol)
				t.Run(name, func(t *testing.T) {
					o := Options{Scenario: c.scenario, Px: sh[0], Pr: sh[1], Policy: pol}
					r5, err := b5.Run(c.cfg, c.g, o, 4)
					if err != nil {
						t.Fatal(err)
					}
					r6, err := b6.Run(c.cfg, c.g, o, 4)
					if err != nil {
						t.Fatal(err)
					}
					if r6.Comm.Startups != r5.Comm.Startups || r6.Comm.Bytes != r5.Comm.Bytes {
						t.Errorf("v6 budget %+v != v5 budget %+v", r6.Comm, r5.Comm)
					}
					if r6.CommDir.Radial.Startups != r5.CommDir.Radial.Startups {
						t.Errorf("v6 radial startups %d != v5 %d",
							r6.CommDir.Radial.Startups, r5.CommDir.Radial.Startups)
					}
					if r6.Px != sh[0] || r6.Pr != sh[1] {
						t.Errorf("v6 shape %dx%d, want %dx%d", r6.Px, r6.Pr, sh[0], sh[1])
					}
					for k := range r5.Fields {
						if !r5.Fields[k].Equal(r6.Fields[k]) {
							t.Errorf("component %d: v6 differs from v5 (max %g)",
								k, r6.Fields[k].MaxAbsDiff(r5.Fields[k]))
						}
					}
				})
			}
		}
	}
}

// TestValidateCatchesBadDecomposition: the optional validator must
// reject slabs below the stencil width without building ranks.
func TestValidateCatchesBadDecomposition(t *testing.T) {
	g := testGrid(t)
	cfg := jet.Paper()
	for _, name := range []string{"mp:v5", "hybrid"} {
		b, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Validate(cfg, g, Options{Procs: 32}); err == nil {
			t.Errorf("%s: want decomposition error for 32 ranks on 64 columns", name)
		}
		if err := b.Validate(cfg, g, Options{Procs: 4}); err != nil {
			t.Errorf("%s: valid decomposition rejected: %v", name, err)
		}
	}
	ser, err := Get("serial")
	if err != nil {
		t.Fatal(err)
	}
	if err := ser.Validate(cfg, g, Options{Procs: 99}); err != nil {
		t.Errorf("serial ignores Procs, want nil, got %v", err)
	}

	// The 2-D decomposition scales past the axial rank ceiling: 32
	// ranks on 64 columns is impossible axially but fits as an 8x4
	// grid — while a degenerate 32x1 shape still fails the width check.
	m2, err := Get("mp2d")
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Validate(cfg, g, Options{Procs: 32}); err != nil {
		t.Errorf("mp2d: 32 ranks on 64x24 should fit as 8x4, got %v", err)
	}
	if err := m2.Validate(cfg, g, Options{Px: 32, Pr: 1}); err == nil {
		t.Error("mp2d: want width error for a 32x1 shape on 64 columns")
	}
	if err := m2.Validate(cfg, g, Options{Px: 1, Pr: 12}); err == nil {
		t.Error("mp2d: want height error for a 1x12 shape on 24 rows")
	}
	if err := m2.Validate(cfg, g, Options{Procs: 6, Px: 4}); err == nil {
		t.Error("mp2d: want error when px does not divide procs")
	}
}

// TestResultMomentum: the gathered state must expose the Figure 1
// quantity with the interior shape and independent storage.
func TestResultMomentum(t *testing.T) {
	ser, err := Get("serial")
	if err != nil {
		t.Fatal(err)
	}
	res, err := ser.Run(jet.Paper(), testGrid(t), Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Momentum()
	if len(m) != 64 || len(m[0]) != 24 {
		t.Fatalf("momentum shape %dx%d", len(m), len(m[0]))
	}
	m[0][0] = 12345
	if res.Fields[flux.IMx].At(0, 0) == 12345 {
		t.Fatal("Momentum must copy, not alias, the gathered state")
	}
}
