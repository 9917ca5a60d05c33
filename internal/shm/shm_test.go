package shm

import (
	"runtime"
	"testing"

	"repro/internal/flux"
	"repro/internal/grid"
	"repro/internal/jet"
	"repro/internal/solver"
)

func TestPoolSplitCoversRange(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, n := range []int{1, 2, 3, 4, 5, 17, 100} {
		hit := make([]int32, n)
		var mu [64]struct{} // padding decoy unused
		_ = mu
		p.Split(0, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				hit[i]++
			}
		})
		for i, h := range hit {
			if h != 1 {
				t.Fatalf("n=%d: index %d covered %d times", n, i, h)
			}
		}
	}
}

func TestPoolSplitEmptyRange(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	called := false
	p.Split(3, 3, func(lo, hi int) { called = true })
	if called {
		t.Error("empty range should not invoke fn")
	}
}

// pooled builds the serial solver with its column loops on an n-worker
// pool, closed when the test ends — the shm backend's configuration,
// the paper's Y-MP DOALL.
func pooled(t *testing.T, cfg jet.Config, g *grid.Grid, n int) *solver.Serial {
	t.Helper()
	s, err := solver.NewSerial(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(n)
	t.Cleanup(p.Close)
	s.Pool = p
	return s
}

// The DOALL solver must reproduce the serial arithmetic bitwise: every
// parallel region is a fork-join over independent columns.
func TestSharedMemoryMatchesSerialBitwise(t *testing.T) {
	g := grid.MustNew(64, 24, 50, 5)
	for _, cfg := range []jet.Config{jet.Paper(), jet.Euler()} {
		ref, err := solver.NewSerial(cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		ref.Run(6)
		for _, workers := range []int{1, 2, 4, 7} {
			s := pooled(t, cfg, g, workers)
			s.Run(6)
			for k := 0; k < flux.NVar; k++ {
				if !s.Q[k].Equal(ref.Q[k]) {
					t.Errorf("viscous=%v workers=%d: component %d differs (max %g)",
						cfg.Viscous, workers, k, s.Q[k].MaxAbsDiff(ref.Q[k]))
				}
			}
		}
	}
}

func TestSharedMemorySpeedupSmoke(t *testing.T) {
	if runtime.NumCPU() < 2 || testing.Short() {
		t.Skip("needs >= 2 CPUs")
	}
	// Not a strict perf assertion (CI noise); just verify a larger run
	// completes and stays stable with many workers.
	g := grid.MustNew(128, 64, 50, 5)
	s := pooled(t, jet.Paper(), g, runtime.NumCPU())
	s.Run(20)
	if d := s.Diagnose(); d.HasNaN {
		t.Fatal("NaN in shared-memory run")
	}
}

// TestAdvanceSteadyStateAllocs extends the solver's allocation-free
// stepping guarantee to the DOALL pool: once the inflow memoization is
// warm, fork-joining every kernel across persistent workers allocates
// nothing per composite step.
func TestAdvanceSteadyStateAllocs(t *testing.T) {
	s := pooled(t, jet.Paper(), grid.MustNew(64, 32, 50, 5), 4)
	s.Advance() // warm: inflow memoization for the first time level
	if allocs := testing.AllocsPerRun(20, s.Advance); allocs != 0 {
		t.Errorf("steady-state pooled Advance allocates %.1f times, want 0", allocs)
	}
}
