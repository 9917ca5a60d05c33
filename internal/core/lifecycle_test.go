package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
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

	// A redundant explicit Version and the version-pinned name converge.
	m := Config{Backend: "mp:v7", Version: 7, Procs: 2, Nx: 64, Nr: 24, Steps: 10}
	cm, err := m.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	n := Config{Backend: "mp:v7", Procs: 2, Nx: 64, Nr: 24, Steps: 10}
	cn, err := n.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if cm.Backend != cn.Backend || cm.Version != cn.Version {
		t.Fatalf("explicit-version and pinned-name spellings diverge: %+v vs %+v", cm, cn)
	}

	// Explicit version folds onto the registered alias name.
	v := Config{Backend: "mp2d", Version: 6, Procs: 4, Nx: 64, Nr: 24, Steps: 10}
	cv, err := v.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if cv.Backend != "mp2d:v6" {
		t.Fatalf("mp2d + Version 6 canonicalized to %q", cv.Backend)
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

	// Canonicalization must be idempotent.
	again, err := ch.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if again.Backend != ch.Backend || again.FreshHalos != ch.FreshHalos || *again.Jet != *ch.Jet {
		t.Fatalf("not idempotent: %+v vs %+v", again, ch)
	}
}

// TestCanonicalParareal pins the parallel-in-time normalizations the
// service cache keys on: a spatial config spelled with TimeSlices 1 and
// stray parareal knobs canonicalizes — and therefore config-hashes —
// identically to the plain spatial spelling, a spatial backend name
// with TimeSlices > 1 moves onto the parareal backend as its fine
// propagator, and the contradictions NewRun rejects are errors here
// too.
func TestCanonicalParareal(t *testing.T) {
	plain, err := small().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	spelled := small()
	spelled.TimeSlices = 1
	spelled.PararealIters = 3
	spelled.CoarseFactor = 4
	spelled.DefectTol = 1e-3
	spelled.FineBackend = "mp:v5"
	cs, err := spelled.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if *cs.Jet != *plain.Jet {
		t.Fatalf("physics diverged: %+v vs %+v", cs.Jet, plain.Jet)
	}
	cs.Jet, plain.Jet = nil, nil
	if cs != plain {
		t.Fatalf("TimeSlices 1 spelling not cleared to the spatial config:\n  %+v\nvs\n  %+v", cs, plain)
	}

	// A spatial name with slices becomes the parareal backend, the name
	// moving onto the fine propagator (version folding included), and
	// the default Lagged policy folds to Fresh — the coordinator's
	// restart-transparency promotion.
	p := small()
	p.Backend = "mp"
	p.Version = 5
	p.Procs = 2
	p.TimeSlices = 4
	cp, err := p.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if cp.Backend != "parareal" || cp.FineBackend != "mp:v5" || cp.TimeSlices != 4 {
		t.Fatalf("parareal rewrite: %+v", cp)
	}
	if !cp.FreshHalos {
		t.Fatalf("Lagged not folded to Fresh under parareal: %+v", cp)
	}
	cp2, err := cp.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if cp2.Backend != cp.Backend || cp2.FineBackend != cp.FineBackend {
		t.Fatalf("parareal canonicalization not idempotent: %+v vs %+v", cp2, cp)
	}

	// An explicit FineBackend wins over the default serial resolution
	// of an empty Backend — the fine propagator and its width survive —
	// while contradicting a non-serial spatial name is an error.
	f := small()
	f.TimeSlices = 2
	f.FineBackend = "mp2d"
	f.Procs = 2
	cf, err := f.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if cf.Backend != "parareal" || cf.FineBackend != "mp2d" || cf.Procs != 2 {
		t.Fatalf("explicit fine propagator clobbered by the serial default: %+v", cf)
	}
	bad := small()
	bad.Backend = "mp2d"
	bad.TimeSlices = 2
	bad.FineBackend = "hybrid"
	if _, err := bad.Canonical(); err == nil {
		t.Fatal("contradictory spatial/fine backend pair accepted")
	}

	// The contradictions NewRun rejects are Canonical errors too.
	bad = small()
	bad.Backend = "parareal"
	if _, err := bad.Canonical(); err == nil {
		t.Fatal("parareal backend without TimeSlices accepted")
	}
	bad = small()
	bad.TimeSlices = 4
	bad.StopTol = 1e-4
	if _, err := bad.Canonical(); err == nil {
		t.Fatal("parareal with convergence control accepted")
	}
	bad = small()
	bad.StopTol = 1e-4
	bad.SteadyTol = 1e-4
	if _, err := bad.Canonical(); err == nil {
		t.Fatal("StopTol with SteadyTol accepted")
	}
}
