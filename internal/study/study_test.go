package study

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/trace"
)

func TestProcCounts(t *testing.T) {
	if got := ProcCounts(8); len(got) != 5 || got[4] != 8 {
		t.Fatalf("ProcCounts(8) = %v", got)
	}
	if got := ProcCounts(16); got[len(got)-1] != 16 {
		t.Fatalf("ProcCounts(16) = %v", got)
	}
}

func TestTable1RowsMatchCharacterization(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	ns := rows[0]
	if ns.App != "Navier-Stokes" {
		t.Fatalf("row order: %q", ns.App)
	}
	// The measured startup count must equal the paper characterization.
	if ns.StartupsPerProc != trace.PaperNS().RankStartups() {
		t.Errorf("N-S startups %d != %d", ns.StartupsPerProc, trace.PaperNS().RankStartups())
	}
	// Measured volume (scaled to Nr=100) matches the analytic 128 MB.
	if ns.VolumePerProcMB < 120 || ns.VolumePerProcMB > 135 {
		t.Errorf("N-S volume %g MB", ns.VolumePerProcMB)
	}
	if rows[1].StartupsPerProc != trace.PaperEuler().RankStartups() {
		t.Errorf("Euler startups %d", rows[1].StartupsPerProc)
	}
}

func TestTable2Shape(t *testing.T) {
	tb := Table2Report()
	if len(tb.Rows) != 5 || len(tb.Headers) != 5 {
		t.Fatalf("table 2 shape: %dx%d", len(tb.Rows), len(tb.Headers))
	}
	// FPs/byte halves as P doubles: row P=4 vs P=8.
	if !strings.Contains(tb.Rows[1][1], "566") {
		t.Errorf("P=2 FPs/byte cell %q", tb.Rows[1][1])
	}
}

func TestFig2SeriesStructure(t *testing.T) {
	ss := Fig2()
	if len(ss) != 2 {
		t.Fatalf("%d series", len(ss))
	}
	for _, s := range ss {
		if s.Len() != 6 { // versions 1-5 plus the overlap restructuring
			t.Fatalf("%s has %d points", s.Name, s.Len())
		}
		// Times must be non-increasing through V5 (each optimization helps).
		for i := 1; i < 5; i++ {
			if s.Y[i] > s.Y[i-1]*1.0001 {
				t.Errorf("%s: V%d slower than V%d", s.Name, i+1, i)
			}
		}
	}
	// Euler is roughly half the work of N-S.
	if r := ss[1].Y[4] / ss[0].Y[4]; r < 0.4 || r > 0.7 {
		t.Errorf("Euler/N-S V5 time ratio %g", r)
	}
}

// TestFigureSeriesConsistency builds Figures 3-12 for both workloads
// (Navier-Stokes figures are odd-numbered, Euler even) and checks each
// figure's series count.
func TestFigureSeriesConsistency(t *testing.T) {
	for _, viscous := range []bool{true, false} {
		n := 3 // Figure number of the LACE curves for this workload
		if !viscous {
			n = 4
		}
		lace, err := FigLACE(viscous)
		if err != nil {
			t.Fatal(err)
		}
		if len(lace) != 3 {
			t.Fatalf("Fig%d: %d series", n, len(lace))
		}
		comp, err := FigLACEComponents(viscous)
		if err != nil {
			t.Fatal(err)
		}
		if len(comp) != 5 { // 2 busy + 2 wait + ethernet wait
			t.Fatalf("Fig%d: %d series", n+2, len(comp))
		}
		vers, err := FigCommVersions(viscous)
		if err != nil {
			t.Fatal(err)
		}
		if len(vers) != 6 {
			t.Fatalf("Fig%d: %d series", n+4, len(vers))
		}
		plats, err := FigPlatforms(viscous)
		if err != nil {
			t.Fatal(err)
		}
		if len(plats) != 5 {
			t.Fatalf("Fig%d: %d series", n+6, len(plats))
		}
		libs, err := FigLibraries(viscous)
		if err != nil {
			t.Fatal(err)
		}
		if len(libs) != 4 {
			t.Fatalf("Fig%d: %d series", n+8, len(libs))
		}
		// Busy series must fall monotonically with P on every platform.
		for _, s := range []int{0, 2} {
			if !libs[s].Monotone() {
				t.Errorf("Fig%d: library busy series %q not monotone", n+8, libs[s].Name)
			}
		}
	}
}

func TestFig1ProducesFlowField(t *testing.T) {
	field, err := Fig1(48, 16, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(field) != 48 || len(field[0]) != 16 {
		t.Fatalf("field shape %dx%d", len(field), len(field[0]))
	}
	// Jet core: rho*u ~ rho_c*Uc = 0.5*2.12 ~ 1.06 at the axis.
	if f := field[5][0]; f < 0.8 || f > 1.3 {
		t.Errorf("core momentum %g", f)
	}
	// Ambient: rho*u ~ 0.1 coflow at the top.
	if f := field[5][15]; f < 0.02 || f > 0.3 {
		t.Errorf("ambient momentum %g", f)
	}
	if _, err := Fig1(4, 4, 1); err == nil {
		t.Error("want error for degenerate grid")
	}
}

func TestFig13Shape(t *testing.T) {
	busy, err := Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if len(busy) != 16 {
		t.Fatalf("%d processors", len(busy))
	}
	for i, b := range busy {
		if b <= 0 {
			t.Fatalf("proc %d busy %g", i, b)
		}
	}
}

// TestFig13SkewedSpread pins the load-balancing acceptance bar: on a
// skewed per-column cost profile at 8 and 16 ranks, the cost-weighted
// decomposition cuts the co-simulated busy-time spread by at least 2x
// against the uniform split (the real gain is closer to 10x; the
// weighted runs themselves stay bitwise-identical to serial, which
// TestBackendParity asserts separately).
func TestFig13SkewedSpread(t *testing.T) {
	for _, procs := range []int{8, 16} {
		uniform, weighted, err := Fig13Skewed(procs)
		if err != nil {
			t.Fatal(err)
		}
		if len(uniform) != procs || len(weighted) != procs {
			t.Fatalf("procs=%d: got %d uniform / %d weighted ranks", procs, len(uniform), len(weighted))
		}
		su, sw := stats.RelSpread(uniform), stats.RelSpread(weighted)
		t.Logf("procs=%d: spread %.1f%% uniform -> %.1f%% weighted", procs, su*100, sw*100)
		if sw*2 > su {
			t.Errorf("procs=%d: weighted spread %.3f not at least 2x below uniform %.3f", procs, sw, su)
		}
	}
}

func TestTable1ReportRenders(t *testing.T) {
	tb, err := Table1Report()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	tb.Render(&sb)
	for _, want := range []string{"Navier-Stokes", "Euler", "80,000", "125"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("missing %q", want)
		}
	}
}

// TestConvergedScenario pins the convergence-control study: the
// converging-jet scenario stops well before the step cap, and the
// co-simulated converged schedule beats the fixed one on the SP even
// paying for its collectives.
func TestConvergedScenario(t *testing.T) {
	fixed, conv, steps, err := ConvergedSpeedup(machine.SPMPL, 16)
	if err != nil {
		t.Fatal(err)
	}
	if steps >= ConvergedMaxSteps || steps == 0 {
		t.Fatalf("scenario stopped at step %d of %d", steps, ConvergedMaxSteps)
	}
	if conv >= fixed {
		t.Fatalf("converged schedule %.4g s not below fixed %.4g s", conv, fixed)
	}
	// The speedup tracks the convergence fraction to first order; the
	// collective must not eat more than a third of it.
	frac := float64(steps) / float64(ConvergedMaxSteps)
	if conv > fixed*frac*1.33 {
		t.Errorf("collective overhead implausibly large: conv %.4g vs fixed*frac %.4g", conv, fixed*frac)
	}
}
