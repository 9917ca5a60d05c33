package repro_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/study"
	"repro/internal/vis"
)

// TestEndToEnd exercises the public API as a downstream user would:
// build a jet, run it serial, message-passing, shared-memory and on the
// 2-D rank grid, render the field, and check the fast subset of the
// paper's claims.
func TestEndToEnd(t *testing.T) {
	configs := []core.Config{
		{Nx: 64, Nr: 24, Steps: 6, Backend: "serial", Procs: 4},
		{Nx: 64, Nr: 24, Steps: 6, Backend: "mp:v5", Procs: 4},
		{Nx: 64, Nr: 24, Steps: 6, Backend: "shm", Procs: 4},
		{Nx: 64, Nr: 24, Steps: 6, Backend: "mp2d", Px: 2, Pr: 2},
	}
	for _, cfg := range configs {
		name := cfg.Backend
		run, err := core.NewRun(cfg)
		if err != nil {
			t.Fatalf("%v: %v", name, err)
		}
		res, err := run.Execute()
		run.Close()
		if err != nil {
			t.Fatalf("%v: %v", name, err)
		}
		if res.Diag.HasNaN || res.Diag.MinP <= 0 {
			t.Fatalf("%v: nonphysical result %+v", name, res.Diag)
		}
		var sb strings.Builder
		vis.ASCIIContour(&sb, "rho*u", res.Momentum, 60, 12)
		if !strings.Contains(sb.String(), "max") {
			t.Fatalf("%v: contour rendering failed", name)
		}
	}
}

// TestFastClaims runs the paper-claim checks that need no platform
// sweep (the full set runs in internal/study).
func TestFastClaims(t *testing.T) {
	fast := map[string]bool{
		"T1-compute-ratio": true,
		"T1-comm-ratio":    true,
		"T1-startups":      true,
		"T1-volume":        true,
		"F2-mflops":        true,
		"F2-stride":        true,
	}
	for _, c := range study.Claims() {
		if !fast[c.ID] {
			continue
		}
		got, ok, err := c.Check()
		if err != nil {
			t.Fatalf("%s: %v", c.ID, err)
		}
		if !ok {
			t.Errorf("%s: %s (got %s)", c.ID, c.Statement, got)
		}
	}
}
