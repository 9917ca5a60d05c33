package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/solver"
)

// Key returns the cache identity of a configuration: the SHA-256 of its
// canonical form. Two configs that Canonical maps onto the same
// normalized run share a key — and therefore a cache line — however
// they were spelled (version aliases of a registry name, implied defaults,
// scenario-pinned physics).
func Key(c core.Config) (string, error) {
	cc, err := c.Canonical()
	if err != nil {
		return "", err
	}
	return keyOf(cc), nil
}

// keyOf hashes an already-canonical config. Floats are keyed by their
// IEEE-754 bits: the cache promises bitwise-identical results, so two
// tolerances that differ in the last ulp are two different runs.
func keyOf(c core.Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario=%s|backend=%s|nx=%d|nr=%d|steps=%d|procs=%d|workers=%d|px=%d|pr=%d|version=%d|balance=%s|fresh=%t|halo=%d|group=%d|tol=%x|every=%d",
		c.Scenario, c.Backend, c.Nx, c.Nr, c.Steps, c.Procs, c.Workers, c.Px, c.Pr,
		c.Version, c.Balance, c.FreshHalos, c.HaloDepth, c.ReduceGroup,
		math.Float64bits(c.StopTol), c.ReduceEvery)
	fmt.Fprintf(&b, "|steady=%x|slices=%d|iters=%d|coarse=%d|defect=%x|fine=%s",
		math.Float64bits(c.SteadyTol), c.TimeSlices, c.PararealIters, c.CoarseFactor,
		math.Float64bits(c.DefectTol), c.FineBackend)
	j := *c.Jet // canonical configs always carry the resolved physics
	fmt.Fprintf(&b, "|jet=%x,%x,%x,%x,%x,%x,%x,%t",
		math.Float64bits(j.MachCenter), math.Float64bits(j.TempRatio),
		math.Float64bits(j.Theta), math.Float64bits(j.Strouhal),
		math.Float64bits(j.Eps), math.Float64bits(j.UCoflow),
		math.Float64bits(j.Reynolds), j.Viscous)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// copyResult returns a private deep copy of r: replies hand callers
// state they may mutate freely without corrupting the cached original.
func copyResult(r *core.Result) *core.Result {
	out := *r
	out.Residuals = append([]solver.ResidualPoint(nil), r.Residuals...)
	out.PerRank = append([]par.RankStats(nil), r.PerRank...)
	if r.Momentum != nil {
		m := make([][]float64, len(r.Momentum))
		for i := range m {
			m[i] = append([]float64(nil), r.Momentum[i]...)
		}
		out.Momentum = m
	}
	return &out
}
