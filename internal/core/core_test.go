package core

import (
	"math"
	"testing"

	"repro/internal/jet"
	"repro/internal/study"
)

func small() Config {
	return Config{Nx: 64, Nr: 24, Steps: 10}
}

func TestSerialRun(t *testing.T) {
	run, err := NewRun(small())
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "serial" || res.Steps != 10 || res.Dt <= 0 {
		t.Fatalf("result: %+v", res)
	}
	if len(res.Momentum) != 64 || len(res.Momentum[0]) != 24 {
		t.Fatal("momentum field shape")
	}
}

// The serial, message-passing and shared-memory styles must agree on the
// physics (bitwise for Fresh halos).
func TestModesAgree(t *testing.T) {
	ref, err := NewRun(small())
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Execute()
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"mp:v5", "shm"} {
		c := small()
		c.Backend = mode
		c.Procs = 4
		c.FreshHalos = true
		run, err := NewRun(c)
		if err != nil {
			t.Fatal(err)
		}
		res, err := run.Execute()
		run.Close()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Diag.Mass-refRes.Diag.Mass) > 1e-12 {
			t.Errorf("%v: mass %.15g vs serial %.15g", mode, res.Diag.Mass, refRes.Diag.Mass)
		}
		for i := range res.Momentum {
			for j := range res.Momentum[i] {
				if res.Momentum[i][j] != refRes.Momentum[i][j] {
					t.Fatalf("%v: momentum differs at (%d,%d)", mode, i, j)
				}
			}
		}
	}
}

func TestMessagePassingReportsComm(t *testing.T) {
	c := small()
	c.Backend = "mp:v5"
	c.Procs = 4
	run, err := NewRun(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm.Startups == 0 || res.Comm.Bytes == 0 {
		t.Fatalf("no communication recorded: %+v", res.Comm)
	}
	if len(res.PerRank) != 4 {
		t.Fatalf("%d rank stats", len(res.PerRank))
	}
}

func TestEulerConfig(t *testing.T) {
	c := small()
	c.Euler = true
	run, err := NewRun(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Execute(); err != nil {
		t.Fatal(err)
	}
}

func TestCustomJetOverride(t *testing.T) {
	c := small()
	jc := jet.Paper()
	jc.Eps = 0
	c.Jet = &jc
	run, err := NewRun(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.Execute()
	if err != nil {
		t.Fatal(err)
	}
	// The mean profile is not an exact steady solution (it diffuses and
	// adjusts radially), but without excitation any radial motion stays
	// tiny; with excitation it is ~1e-4 (see solver tests).
	if res.Diag.MaxV > 1e-5 {
		t.Errorf("unexcited jet grew radial velocity %g", res.Diag.MaxV)
	}
}

func TestDefaultsAndValidation(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Nx != 250 || c.Nr != 100 || c.Steps != 5000 || c.Procs != 1 || c.Backend != "serial" {
		t.Fatalf("defaults: %+v", c)
	}
	if _, err := NewRun(Config{Nx: 4, Nr: 4}); err == nil {
		t.Error("want error for tiny grid")
	}
	if _, err := NewRun(Config{Nx: 64, Nr: 24, Backend: "mp:v5", Procs: 32}); err == nil {
		t.Error("want error for too many ranks")
	}
}

// TestVersionReachesRegistry: the backend name alone selects the
// communication strategy, and the strategy it names reaches the engine
// through NewRun — the de-burst rows book 6/4 of their Version-5
// sibling's startups (two of the four Navier-Stokes exchanges split in
// two), the overlapped rows exactly their sibling's.
func TestVersionReachesRegistry(t *testing.T) {
	startups := func(name string) int64 {
		t.Helper()
		c := Config{Nx: 64, Nr: 24, Steps: 2, Procs: 2, Workers: 1, Backend: name}
		run, err := NewRun(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := run.Execute()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Backend != name {
			t.Errorf("%s reported backend %q", name, res.Backend)
		}
		return res.Comm.Startups
	}
	for _, c := range []struct {
		name, v5 string
		num, den int64
	}{
		{"mp:v6", "mp:v5", 1, 1},
		{"mp:v7", "mp:v5", 3, 2},
		{"mp2d:v6", "mp2d", 1, 1},
		{"hybrid:v6", "hybrid", 1, 1},
		{"hybrid:v7", "hybrid", 3, 2},
	} {
		got, base := startups(c.name), startups(c.v5)
		if got != base*c.num/c.den {
			t.Errorf("%s: %d startups, want %d/%d of %s's %d", c.name, got, c.num, c.den, c.v5, base)
		}
	}
}

// TestResultReportsResolvedBackend: the result names the backend that
// actually ran, including the serial resolution of an empty Backend.
func TestResultReportsResolvedBackend(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{Nx: 64, Nr: 24, Steps: 2, Backend: "mp2d", Procs: 4}, "mp2d"},
		{Config{Nx: 64, Nr: 24, Steps: 2, Backend: "hybrid", Procs: 2, Workers: 2}, "hybrid"},
		{Config{Nx: 64, Nr: 24, Steps: 2, Backend: "hybrid:v7", Procs: 2, Workers: 2}, "hybrid:v7"},
		{Config{Nx: 64, Nr: 24, Steps: 2, Backend: "shm", Procs: 2}, "shm"},
		{Config{Nx: 64, Nr: 24, Steps: 2, Backend: "serial"}, "serial"},
		{Config{Nx: 64, Nr: 24, Steps: 2, Procs: 2}, "serial"},
	}
	for _, c := range cases {
		run, err := NewRun(c.cfg)
		if err != nil {
			t.Fatalf("%+v: %v", c.cfg, err)
		}
		res, err := run.Execute()
		if err != nil {
			t.Fatalf("%+v: %v", c.cfg, err)
		}
		if res.Backend != c.want {
			t.Errorf("%+v reported backend %q, want %q", c.cfg, res.Backend, c.want)
		}
	}
}

// TestHalfSpecifiedRankGrid is the regression test for the silent
// 1-rank collapse: one rank-grid axis without the other and without
// Procs must be an error, not a serial run in disguise.
func TestHalfSpecifiedRankGrid(t *testing.T) {
	for _, cfg := range []Config{
		{Nx: 64, Nr: 24, Backend: "mp2d", Px: 2},
		{Nx: 64, Nr: 24, Backend: "mp2d", Px: 1},
		{Nx: 64, Nr: 24, Backend: "mp2d", Pr: 2},
	} {
		if _, err := NewRun(cfg); err == nil {
			t.Errorf("Px=%d Pr=%d Procs=0: want half-specified-grid error", cfg.Px, cfg.Pr)
		}
	}
	// One axis plus an explicit total stays valid (the other axis is
	// derived), as does a full shape with no total.
	for _, cfg := range []Config{
		{Nx: 64, Nr: 24, Steps: 1, Backend: "mp2d", Px: 2, Procs: 4},
		{Nx: 64, Nr: 24, Steps: 1, Backend: "mp2d", Px: 2, Pr: 2},
	} {
		if _, err := NewRun(cfg); err != nil {
			t.Errorf("Px=%d Pr=%d Procs=%d: unexpected error %v", cfg.Px, cfg.Pr, cfg.Procs, err)
		}
	}
}

// TestConvergedRunReportsActualSteps: with a tolerance, Result.Steps
// must be the steps actually run, with the residual history attached —
// the other half of the reporting-bug satellite.
func TestConvergedRunReportsActualSteps(t *testing.T) {
	jc := study.ConvergedConfig()
	c := Config{Nx: 64, Nr: 26, Steps: 400, Backend: "mp:v5", Procs: 3,
		StopTol: 9e-3, ReduceEvery: 5, Jet: &jc}
	run, err := NewRun(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Steps >= 400 || res.Steps == 0 {
		t.Fatalf("converged run reported steps=%d converged=%v", res.Steps, res.Converged)
	}
	if len(res.Residuals) == 0 || res.Residuals[len(res.Residuals)-1].Step != res.Steps {
		t.Fatalf("residual history %v does not end at the stop step %d", res.Residuals, res.Steps)
	}
	if res.CommDir.Reduce.Startups == 0 {
		t.Fatal("no reduce-class traffic recorded")
	}
}

// TestBackendNameSelectsRegistry: the Backend field must route through
// the internal/backend registry and surface registry errors at NewRun.
func TestBackendNameSelectsRegistry(t *testing.T) {
	c := small()
	c.Backend = "hybrid"
	c.Procs = 4
	c.Workers = 2
	run, err := NewRun(c)
	if err != nil {
		t.Fatal(err)
	}
	if run.Backend().Name() != "hybrid" {
		t.Fatalf("resolved %q, want hybrid", run.Backend().Name())
	}
	res, err := run.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "hybrid" || res.Comm.Startups == 0 {
		t.Fatalf("hybrid result: backend=%q comm=%+v", res.Backend, res.Comm)
	}

	c.Backend = "nonesuch"
	if _, err := NewRun(c); err == nil {
		t.Error("want error for unknown backend name")
	}
	c.Backend = "hybrid"
	c.Procs = 32 // 64 columns / 32 ranks is below the stencil width
	if _, err := NewRun(c); err == nil {
		t.Error("want early decomposition error from the backend's Validate")
	}
}
