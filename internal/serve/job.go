package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"repro/internal/core"
	"repro/internal/jet"
)

// Job is the wire form of one run request — the jetsimd job protocol
// (stdin-JSON batch mode and the HTTP body of POST /run). Zero-valued
// fields mean the same defaults as the corresponding core.Config
// fields, so `{"nx":64,"nr":24,"steps":50}` is a valid job.
type Job struct {
	// ID is an opaque client tag echoed on the result.
	ID       string `json:"id,omitempty"`
	Scenario string `json:"scenario,omitempty"`
	Backend  string `json:"backend,omitempty"`
	Euler    bool   `json:"euler,omitempty"`
	Nx       int    `json:"nx,omitempty"`
	Nr       int    `json:"nr,omitempty"`
	Steps    int    `json:"steps,omitempty"`
	Procs    int    `json:"procs,omitempty"`
	Workers  int    `json:"workers,omitempty"`
	Px       int    `json:"px,omitempty"`
	Pr       int    `json:"pr,omitempty"`
	Balance  string `json:"balance,omitempty"`
	Fresh    bool   `json:"fresh,omitempty"`
	// HaloDepth/ReduceGroup/Tol/ReduceEvery mirror the CLI flags.
	HaloDepth   int     `json:"halo_depth,omitempty"`
	ReduceGroup int     `json:"reduce_group,omitempty"`
	Tol         float64 `json:"tol,omitempty"`
	ReduceEvery int     `json:"reduce_every,omitempty"`
	// SteadyTol is the velocity-steadiness stopping tolerance (the
	// cavity criterion), mutually exclusive with Tol.
	SteadyTol float64 `json:"steady_tol,omitempty"`
	// Reynolds and Eps override the jet's parameters for parameter
	// sweeps (Eps is a pointer so an explicit 0 — unexcited — is
	// distinguishable from "unset"). Jet scenario only; the
	// wall-bounded scenarios pin their own physics.
	Reynolds float64  `json:"reynolds,omitempty"`
	Eps      *float64 `json:"eps,omitempty"`
}

// Config maps the wire job onto a core configuration.
func (j Job) Config() core.Config {
	c := core.Config{
		Scenario: j.Scenario,
		Backend:  j.Backend,
		Euler:    j.Euler,
		Nx:       j.Nx, Nr: j.Nr, Steps: j.Steps,
		Procs: j.Procs, Workers: j.Workers, Px: j.Px, Pr: j.Pr,
		Balance:     j.Balance,
		FreshHalos:  j.Fresh,
		HaloDepth:   j.HaloDepth,
		ReduceGroup: j.ReduceGroup,
		StopTol:     j.Tol,
		ReduceEvery: j.ReduceEvery,
		SteadyTol:   j.SteadyTol,
	}
	if j.Reynolds > 0 || j.Eps != nil {
		jc := jet.Paper()
		if j.Euler {
			jc = jet.Euler()
		}
		if j.Reynolds > 0 {
			jc.Reynolds = j.Reynolds
		}
		if j.Eps != nil {
			jc.Eps = *j.Eps
		}
		c.Jet = &jc
	}
	return c
}

// JobResult is the wire form of one served job.
type JobResult struct {
	ID     string `json:"id,omitempty"`
	OK     bool   `json:"ok"`
	Error  string `json:"error,omitempty"`
	Cached bool   `json:"cached"`
	// Key is the canonical config hash — two results with equal keys
	// are the same cached physics.
	Key       string  `json:"key,omitempty"`
	Backend   string  `json:"backend,omitempty"`
	Scenario  string  `json:"scenario,omitempty"`
	Procs     int     `json:"procs,omitempty"`
	Steps     int     `json:"steps,omitempty"`
	Dt        float64 `json:"dt,omitempty"`
	Converged bool    `json:"converged,omitempty"`
	Mass      float64 `json:"mass,omitempty"`
	Energy    float64 `json:"energy,omitempty"`
	// MomentumSHA256 fingerprints the full axial-momentum field bit for
	// bit: a cached result carries the checksum of the cold run it
	// replays, so clients can verify bitwise identity end to end.
	MomentumSHA256 string `json:"momentum_sha256,omitempty"`
	// ElapsedMS is the solver wall time of the cold run that produced
	// the physics (a cache hit reports the original's, not ~0).
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
}

// ResultOf builds the wire result for a served (or failed) job. It
// reads the reply's Checksum rather than hashing the field again.
func ResultOf(id string, rep *Reply, err error) JobResult {
	if err != nil {
		return JobResult{ID: id, OK: false, Error: err.Error()}
	}
	r := rep.Result
	return JobResult{
		ID:             id,
		OK:             true,
		Cached:         rep.Cached,
		Key:            rep.Key,
		Backend:        r.Backend,
		Scenario:       r.Scenario,
		Procs:          r.Procs,
		Steps:          r.Steps,
		Dt:             r.Dt,
		Converged:      r.Converged,
		Mass:           r.Diag.Mass,
		Energy:         r.Diag.Energy,
		MomentumSHA256: rep.Checksum,
		ElapsedMS:      float64(r.Elapsed.Microseconds()) / 1e3,
	}
}

// MomentumChecksum fingerprints a momentum field by the IEEE-754 bits
// of every value: equal checksums mean bitwise-equal fields.
func MomentumChecksum(m [][]float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, col := range m {
		for _, v := range col {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
