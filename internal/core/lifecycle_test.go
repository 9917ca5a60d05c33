package core

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/jet"
)

// TestRunIsOneShot pins the Execute reuse semantics: a Run is consumed
// by its first Execute, and every later attempt fails loudly instead of
// silently re-marching a stale field.
func TestRunIsOneShot(t *testing.T) {
	run, err := NewRun(small())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Execute(); err != nil {
		t.Fatal(err)
	}
	if _, err := run.Execute(); !errors.Is(err, ErrRunConsumed) {
		t.Fatalf("second Execute: err = %v, want ErrRunConsumed", err)
	}
}

func TestClosedRunRefusesExecute(t *testing.T) {
	run, err := NewRun(small())
	if err != nil {
		t.Fatal(err)
	}
	run.Close()
	if _, err := run.Execute(); !errors.Is(err, ErrRunClosed) {
		t.Fatalf("Execute after Close: err = %v, want ErrRunClosed", err)
	}
	// Close after Execute is a no-op used by defers.
	run2, err := NewRun(small())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run2.Execute(); err != nil {
		t.Fatal(err)
	}
	run2.Close()
}

// TestConcurrentExecuteOneRun races many Execute calls on ONE Run:
// exactly one must win, the rest must fail with ErrRunConsumed (run
// with -race).
func TestConcurrentExecuteOneRun(t *testing.T) {
	run, err := NewRun(small())
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	var wins, consumed atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch _, err := run.Execute(); {
			case err == nil:
				wins.Add(1)
			case errors.Is(err, ErrRunConsumed):
				consumed.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if wins.Load() != 1 || consumed.Load() != callers-1 {
		t.Fatalf("wins=%d consumed=%d, want 1 and %d", wins.Load(), consumed.Load(), callers-1)
	}
}

// TestConcurrentExecuteDistinctRuns is the multi-tenant core guarantee:
// distinct Runs over mixed backends execute concurrently (sharing the
// cached grid) and each reproduces its solo result bitwise (run with
// -race).
func TestConcurrentExecuteDistinctRuns(t *testing.T) {
	configs := []Config{
		small(),
		{Backend: "shm", Procs: 2, Nx: 64, Nr: 24, Steps: 10},
		{Backend: "mp:v5", Procs: 2, FreshHalos: true, Nx: 64, Nr: 24, Steps: 10},
		{Backend: "mp2d", Px: 2, Pr: 2, Procs: 4, FreshHalos: true, Nx: 64, Nr: 24, Steps: 10},
	}
	want := make([]*Result, len(configs))
	for i, c := range configs {
		run, err := NewRun(c)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = run.Execute(); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]*Result, len(configs))
	var wg sync.WaitGroup
	for i, c := range configs {
		wg.Add(1)
		go func(i int, c Config) {
			defer wg.Done()
			run, err := NewRun(c)
			if err != nil {
				t.Error(err)
				return
			}
			defer run.Close()
			if got[i], err = run.Execute(); err != nil {
				t.Error(err)
			}
		}(i, c)
	}
	wg.Wait()
	for i := range configs {
		if got[i] == nil {
			t.Fatalf("config %d produced no result", i)
		}
		for x := range want[i].Momentum {
			for r := range want[i].Momentum[x] {
				if got[i].Momentum[x][r] != want[i].Momentum[x][r] {
					t.Fatalf("config %d: momentum[%d][%d] differs under concurrency: %g vs %g",
						i, x, r, got[i].Momentum[x][r], want[i].Momentum[x][r])
				}
			}
		}
	}
}

// TestSharedGridCache: concurrent NewRuns of one scenario resolution
// share a single grid instance.
func TestSharedGridCache(t *testing.T) {
	a, err := NewRun(small())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRun(small())
	if err != nil {
		t.Fatal(err)
	}
	if a.grid != b.grid {
		t.Fatal("two runs of one scenario resolution built distinct grids")
	}
}

func TestHaloContradictionRejected(t *testing.T) {
	c := small()
	c.Backend = "mp:v5"
	c.Procs = 2
	c.FreshHalos = true
	c.HaloDepth = 2
	if _, err := NewRun(c); err == nil {
		t.Fatal("HaloDepth > 1 with FreshHalos accepted")
	}
	if _, err := c.Canonical(); err == nil {
		t.Fatal("Canonical accepted the contradiction")
	}
	c.HaloDepth = 1 // depth 1 IS the fresh policy; no contradiction
	if _, err := NewRun(c); err != nil {
		t.Fatal(err)
	}
}

// TestCanonical pins the normalizations the service cache keys on.
func TestCanonical(t *testing.T) {
	cc, err := small().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if cc.Backend != "serial" || cc.Scenario != "jet" {
		t.Fatalf("zero config canonicalized to %+v", cc)
	}
	if cc.Procs != 1 || cc.Workers != 0 {
		t.Fatalf("serial width not normalized: procs=%d workers=%d", cc.Procs, cc.Workers)
	}
	if cc.Jet == nil || !cc.Jet.Viscous || cc.Euler {
		t.Fatalf("physics not expanded: jet=%+v euler=%v", cc.Jet, cc.Euler)
	}
	if cc.Balance == "" {
		t.Fatal("balance not defaulted")
	}

	// Euler against a viscous caller Jet is a contradiction on the jet,
	// whose physics the caller controls; a pinned-physics scenario folds
	// Euler away whatever Jet says.
	paper := jet.Paper()
	if _, err := (Config{Euler: true, Jet: &paper, Nx: 64, Nr: 24}).Canonical(); err == nil {
		t.Fatal("Euler with a viscous jet configuration accepted")
	}
	cav, err := (Config{Scenario: "cavity", Euler: true, Jet: &paper, Nx: 33, Nr: 32}).Canonical()
	if err != nil {
		t.Fatalf("cavity with Euler: %v", err)
	}
	if cav.Euler != !cav.Jet.Viscous {
		t.Fatalf("cavity Euler not recomputed from its physics: %+v", cav)
	}

	// HaloDepth 1 is the fresh policy; StopTol implies a cadence.
	h := Config{Backend: "mp:v5", Procs: 2, HaloDepth: 1, StopTol: 1e-4, Nx: 64, Nr: 24, Steps: 10}
	ch, err := h.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if ch.HaloDepth != 0 || !ch.FreshHalos {
		t.Fatalf("HaloDepth 1 not folded: %+v", ch)
	}
	if ch.ReduceEvery != 1 {
		t.Fatalf("StopTol cadence not defaulted: %d", ch.ReduceEvery)
	}
	bad := small()
	bad.StopTol = 1e-4
	bad.SteadyTol = 1e-4
	if _, err := bad.Canonical(); err == nil {
		t.Fatal("StopTol with SteadyTol accepted")
	}

	// Canonicalization must be idempotent.
	again, err := ch.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if again.Backend != ch.Backend || again.FreshHalos != ch.FreshHalos || *again.Jet != *ch.Jet {
		t.Fatalf("not idempotent: %+v vs %+v", again, ch)
	}
}

// aliasSpellings is the alias table of TestCanonical*, and of
// serve.TestKeyAliasing: spellings Canonical folds onto another entry
// (or onto their own defaults), on a 64x24 grid unless they name one.
func aliasSpellings() []Config {
	table := []Config{
		{Procs: 4}, // empty Backend is serial: one slab whatever the width
		{Backend: "serial"},
		{Scenario: "jet", Backend: "serial", Balance: "uniform"},
		{Backend: "mp2d:v6", Procs: 4},
		{Backend: "mp2d", Px: 2, Pr: 1}, // the shape defines the width
		{Backend: "mp:v7", Procs: 2},
		{Backend: "hybrid:v6", Procs: 2, Workers: 1, ReduceGroup: 1},
		{Scenario: "cavity", Euler: true, Nx: 33, Nr: 32},
		{Scenario: "cavity", Nx: 33, Nr: 32},
		{Backend: "mp:v5", Procs: 2, HaloDepth: 1},
		{Backend: "mp:v5", Procs: 2, FreshHalos: true},
		{Backend: "mp:v5", Procs: 2, HaloDepth: 1, StopTol: 1e-1},
	}
	for i := range table {
		if table[i].Nx == 0 {
			table[i].Nx, table[i].Nr = 64, 24
		}
		table[i].Steps = 8
	}
	return table
}

// sameConfig compares two canonical configs, physics by value.
func sameConfig(a, b Config) bool {
	ja, jb := *a.Jet, *b.Jet
	a.Jet, b.Jet = nil, nil
	return a == b && ja == jb
}

// TestCanonicalIdempotent: the canonical form is a fixed point, over
// the whole alias table.
func TestCanonicalIdempotent(t *testing.T) {
	for _, c := range aliasSpellings() {
		once, err := c.Canonical()
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		twice, err := once.Canonical()
		if err != nil {
			t.Fatalf("canonical form of %+v rejected: %v", c, err)
		}
		if !sameConfig(once, twice) {
			t.Errorf("not idempotent for %+v:\n  once  %+v %+v\n  twice %+v %+v", c, once, *once.Jet, twice, *twice.Jet)
		}
	}
}

// TestNewRunEqualsCanonicalRun: NewRun runs on the canonical form, so a
// spelling and its canonical form are one run — same resolved config,
// bitwise-equal momentum, steps and dt.
func TestNewRunEqualsCanonicalRun(t *testing.T) {
	for _, c := range aliasSpellings() {
		cc, err := c.Canonical()
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		spelled, err := NewRun(c)
		if err != nil {
			t.Fatalf("NewRun(%+v): %v", c, err)
		}
		canon, err := NewRun(cc)
		if err != nil {
			t.Fatalf("NewRun(Canonical(%+v)): %v", c, err)
		}
		if !sameConfig(spelled.cfg, cc) || !sameConfig(canon.cfg, cc) {
			t.Errorf("%+v: NewRun resolved %+v, Canonical %+v", c, spelled.cfg, cc)
		}
		a, err := spelled.Execute()
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		b, err := canon.Execute()
		if err != nil {
			t.Fatalf("%+v: %v", cc, err)
		}
		if a.Backend != cc.Backend || b.Backend != cc.Backend {
			t.Errorf("%+v: results name backends %q and %q, canonical name %q", c, a.Backend, b.Backend, cc.Backend)
		}
		if a.Steps != b.Steps || a.Dt != b.Dt {
			t.Errorf("%+v: steps/dt %d/%g vs %d/%g", c, a.Steps, a.Dt, b.Steps, b.Dt)
		}
		if !reflect.DeepEqual(a.Momentum, b.Momentum) {
			t.Errorf("%+v: momentum fields differ", c)
		}
	}
}

// TestNewRunFollowsCanonical pins the spellings on which NewRun used to
// disagree with Canonical (and so jetsim with jetsimd) before it was
// built on it; Canonical's reading is the one that stands.
func TestNewRunFollowsCanonical(t *testing.T) {
	// Results carry the canonical width: serial is one slab whatever
	// Procs says.
	c := small()
	c.Procs = 4
	run, err := NewRun(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "serial" || res.Procs != 1 {
		t.Errorf("serial with Procs 4 reported %s on %d procs, want serial on 1", res.Backend, res.Procs)
	}
	// The default scenario is the jet, whose Problem validates the
	// physics at construction, not first at Execute.
	c = small()
	jc := jet.Paper()
	jc.Theta = -1
	c.Jet = &jc
	if _, err := NewRun(c); err == nil {
		t.Error("invalid jet physics accepted by NewRun")
	}
	// A contradiction Canonical rejects never reaches a backend.
	c = small()
	jc = jet.Paper()
	c.Euler, c.Jet = true, &jc
	if _, err := NewRun(c); err == nil {
		t.Error("Euler with a viscous jet configuration accepted by NewRun")
	}
}
