package backend

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/flux"
	"repro/internal/grid"
	"repro/internal/jet"
	"repro/internal/scenario"
	"repro/internal/solver"
)

// update regenerates the committed goldens instead of comparing:
//
//	go test ./internal/backend -run TestGolden -update
var update = flag.Bool("update", false, "rewrite testdata/goldens.json from the current serial solver")

// goldenCase pins the serial solver on one small configuration.
type goldenCase struct {
	Nx       int     `json:"nx"`
	Nr       int     `json:"nr"`
	Steps    int     `json:"steps"`
	Euler    bool    `json:"euler"`
	Scenario string  `json:"scenario,omitempty"` // registry name; empty = pre-registry jet path
	DtBits   uint64  `json:"dt_bits"`            // IEEE-754 bits of the stable time step
	SumBits  uint64  `json:"sum_bits"`           // FNV-1a 64 over the final field bits
	Mass     float64 `json:"mass"`               // human-readable drift indicator
}

// goldenCases are the pinned configurations: the jet viscous and
// inviscid on different grids, plus one golden per wall-bounded
// scenario so the wall-mirror and inflow-hook arithmetic is locked
// against drift just like the jet kernels.
func goldenCases() map[string]goldenCase {
	return map[string]goldenCase{
		"ns-64x24":      {Nx: 64, Nr: 24, Steps: 8},
		"euler-48x16":   {Nx: 48, Nr: 16, Steps: 10, Euler: true},
		"cavity-64x24":  {Nx: 64, Nr: 24, Steps: 8, Scenario: "cavity"},
		"channel-64x24": {Nx: 64, Nr: 24, Steps: 8, Scenario: "channel"},
	}
}

// goldenSetup resolves one golden case's physics, grid, and baseline
// options. Scenario-less cases keep the original literal construction
// (jet config on the paper's 50x5 geometry) so their checksums are
// untouched by the registry's existence.
func goldenSetup(t *testing.T, c goldenCase) (jet.Config, *grid.Grid, Options) {
	t.Helper()
	if c.Scenario == "" {
		cfg := jet.Paper()
		if c.Euler {
			cfg = jet.Euler()
		}
		return cfg, grid.MustNew(c.Nx, c.Nr, 50, 5), Options{}
	}
	sc, err := scenario.Get(c.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sc.Config(jet.Paper())
	g, err := sc.Grid(c.Nx, c.Nr)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, g, Options{Scenario: c.Scenario}
}

// fieldChecksum hashes the interior of every component, column-major,
// as raw IEEE-754 bits — any single-ulp drift anywhere changes it.
func fieldChecksum(s *flux.State) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for k := 0; k < flux.NVar; k++ {
		for i := 0; i < s[k].Nx; i++ {
			for _, v := range s[k].Col(i) {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}

// TestGoldenFields locks the serial physics against bitwise drift:
// kernel or backend refactors that change any arithmetic — even in the
// last ulp — fail this test, so deliberate changes must regenerate the
// goldens with -update (and say so in review). The checksums pin the
// amd64 arithmetic; other architectures may legally fuse multiply-adds
// into different (equally valid) results, so the comparison is skipped
// there.
func TestGoldenFields(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		if *update {
			t.Fatalf("refusing to regenerate the goldens on GOARCH=%s: they pin amd64 arithmetic and CI would then fail on a physics change that never happened", runtime.GOARCH)
		}
		t.Skipf("goldens pin amd64 float arithmetic; GOARCH=%s may fuse FMAs", runtime.GOARCH)
	}
	path := filepath.Join("testdata", "goldens.json")
	got := map[string]goldenCase{}
	for name, c := range goldenCases() {
		cfg, g, opts := goldenSetup(t, c)
		b, err := Get("serial")
		if err != nil {
			t.Fatal(err)
		}
		res, err := b.Run(cfg, g, opts, c.Steps)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c.DtBits = math.Float64bits(res.Dt)
		c.SumBits = fieldChecksum(res.Fields)
		c.Mass = res.Diag.Mass
		got[name] = c
	}

	if *update {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing goldens (regenerate with -update): %v", err)
	}
	want := map[string]goldenCase{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no committed golden (regenerate with -update)", name)
			continue
		}
		if g.SumBits != w.SumBits || g.DtBits != w.DtBits {
			t.Errorf("%s: fields drifted from golden:\n  dt   %016x want %016x\n  sum  %016x want %016x\n  mass %.15g want %.15g\nIf the physics change is intentional, regenerate with -update.",
				name, g.DtBits, w.DtBits, g.SumBits, w.SumBits, g.Mass, w.Mass)
		}
	}
	// Keys present in the file but no longer generated indicate a stale
	// golden set.
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("stale golden %q (regenerate with -update)", name)
		}
	}
}

// goldenVariant is one backend/options pair checked against the live
// serial reference by assertGoldenVariants.
type goldenVariant struct {
	backend string
	opts    Options
}

// assertGoldenVariants runs every variant on every golden
// configuration and asserts its gathered fields and time step match
// the live serial reference bitwise. Unlike the committed amd64
// goldens this holds on any architecture: both runs are the same
// binary doing the same arithmetic.
func assertGoldenVariants(t *testing.T, variants func(c goldenCase) []goldenVariant) {
	t.Helper()
	ser, err := Get("serial")
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range goldenCases() {
		cfg, g, baseOpts := goldenSetup(t, c)
		ref, err := ser.Run(cfg, g, baseOpts, c.Steps)
		if err != nil {
			t.Fatalf("%s: serial: %v", name, err)
		}
		refSum := fieldChecksum(ref.Fields)
		for _, v := range variants(c) {
			b, err := Get(v.backend)
			if err != nil {
				t.Fatal(err)
			}
			v.opts.Scenario = c.Scenario
			res, err := b.Run(cfg, g, v.opts, c.Steps)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, v.backend, err)
			}
			if sum := fieldChecksum(res.Fields); sum != refSum {
				t.Errorf("%s: %s %s checksum %016x != serial %016x",
					name, v.backend, optionsLabel(v.opts), sum, refSum)
			}
			if math.Float64bits(res.Dt) != math.Float64bits(ref.Dt) {
				t.Errorf("%s: %s dt %g != serial %g", name, v.backend, res.Dt, ref.Dt)
			}
		}
	}
}

// TestGoldenWeightedVariants extends the checksum net to cost-weighted
// decompositions: skewed explicit profiles (both decompositions,
// grouped and overlapped exchanges) and the analytic flops mode must
// reproduce the serial field bits exactly under the Fresh policy —
// load balancing moves block edges, never arithmetic.
func TestGoldenWeightedVariants(t *testing.T) {
	assertGoldenVariants(t, func(c goldenCase) []goldenVariant {
		return []goldenVariant{
			{"mp:v5", Options{Procs: 3, Policy: solver.Fresh, ColWeights: testRamp(c.Nx)}},
			{"mp:v6", Options{Procs: 3, Policy: solver.Fresh, ColWeights: testRamp(c.Nx)}},
			{"mp2d", Options{Px: 2, Pr: 2, Policy: solver.Fresh, ColWeights: testRamp(c.Nx), RowWeights: testRamp(c.Nr)}},
			{"mp2d:v6", Options{Px: 2, Pr: 2, Policy: solver.Fresh, ColWeights: testRamp(c.Nx), RowWeights: testRamp(c.Nr)}},
			{"hybrid", Options{Procs: 3, Workers: 2, Policy: solver.Fresh, ColWeights: testRamp(c.Nx)}},
			{"mp:v5", Options{Procs: 4, Policy: solver.Fresh, Balance: BalanceFlops}},
			{"mp2d", Options{Px: 2, Pr: 2, Policy: solver.Fresh, Balance: BalanceFlops}},
		}
	})
}

// TestGoldenOverlappedVariants extends the checksum net to the
// Version-6 overlap: the overlapped 2-D backend (across rank-grid
// shapes) and the overlapped hybrid backend must reproduce the serial
// field bits exactly under the Fresh policy.
func TestGoldenOverlappedVariants(t *testing.T) {
	assertGoldenVariants(t, func(goldenCase) []goldenVariant {
		return []goldenVariant{
			{"mp2d:v6", Options{Px: 2, Pr: 2, Policy: solver.Fresh}},
			{"mp2d:v6", Options{Px: 1, Pr: 3, Policy: solver.Fresh}},
			{"mp2d:v6", Options{Px: 3, Pr: 2, Policy: solver.Fresh}},
			{"hybrid:v6", Options{Procs: 3, Workers: 2, Policy: solver.Fresh}},
		}
	})
}
