// Package cpu provides processor timing models for the paper's nodes:
// superscalar RISC chips whose sustained speed is dominated by the cache
// and memory hierarchy (RS6000/560, /590, RS6K/370, T3D's Alpha 21064),
// and the Cray Y-MP vector processor (Hockney r_inf / n_1/2 model).
//
// The RISC model composes a per-point cycle count from the operation mix
// of a kernel version (internal/kernels) and the miss ratio of a cache
// simulation — reproducing the paper's observation that "the bottleneck
// seems to be the performance of the cache and the memory hierarchy".
package cpu

import (
	"repro/internal/cache"
	"repro/internal/kernels"
)

// Chip is a cache-based RISC processor model.
type Chip struct {
	Name              string
	ClockHz           float64
	DCache            cache.Config
	MissPenaltyCycles float64 // average main-memory stall per miss
	CPIFlop           float64 // cycles per ordinary FLOP (issue + ld/st overhead folded in)
	DivCycles         float64 // extra cycles per floating division
	PowCycles         float64 // cycles per exponentiation library call
	// WriteStallCycles models write-through traffic (the T3D's Alpha has
	// no write-allocate and no L2: every store goes to DRAM). Zero for
	// the write-back RS6000 family.
	WriteStallCycles float64
}

// StoreFactor is stores issued per floating-point operation.
const StoreFactor = 0.12

// The paper's processors (Section 4). Clock rates and cache geometries
// are quoted by the paper; penalties and CPIs are calibrated so the
// RS6000/560 reproduces Figure 2's 9.3 -> 16.0 MFLOPS progression (see
// cpu tests and the F2-* claims of internal/study).
var (
	RS560 = Chip{
		Name: "RS6000/560", ClockHz: 50e6, DCache: cache.RS560,
		MissPenaltyCycles: 7, CPIFlop: 2.6, DivCycles: 19, PowCycles: 50,
	}
	RS590 = Chip{
		Name: "RS6000/590", ClockHz: 66.5e6, DCache: cache.RS590,
		// 4x wider memory bus than the 560: lower effective miss penalty.
		MissPenaltyCycles: 5, CPIFlop: 2.3, DivCycles: 17, PowCycles: 50,
	}
	RS370 = Chip{
		Name: "RS6K/370", ClockHz: 62.5e6, DCache: cache.RS370,
		// Desktop-class model: narrower issue and a slower memory path
		// than the 560/590 server nodes; with the 32 KB cache this puts
		// the SP node below the 560 on this code, the paper's
		// "surprising" observation in Section 7.2.
		MissPenaltyCycles: 60, CPIFlop: 4.0, DivCycles: 19, PowCycles: 50,
	}
	AlphaT3D = Chip{
		Name: "Alpha 21064 (T3D)", ClockHz: 150e6, DCache: cache.T3D,
		// Fast clock against far DRAM with no L2: a large penalty in
		// cycles; no fused multiply-add (the POWER chips have one),
		// hence the higher CPI; write-through D-cache sends every store
		// to memory. The paper: "we attribute the T3D's poor performance
		// to the small direct-mapped cache"; NAS reported the same [17].
		MissPenaltyCycles: 80, CPIFlop: 3.2, DivCycles: 34, PowCycles: 80,
		WriteStallCycles: 30,
	}
)

// Perf is the outcome of evaluating a kernel version on a chip.
type Perf struct {
	Chip            string
	Version         int
	CyclesPerPoint  float64
	MissesPerPoint  float64
	EffMFLOPS       float64
	SecondsPerPoint float64
}

// Evaluate combines the chip model, the kernel version's operation mix,
// and a cache simulation of its access pattern into a sustained rate
// for an application running flopsPerPoint FLOPs per grid point per
// step (the paper's Table 1 density).
func (c Chip) Evaluate(v kernels.Spec, flopsPerPoint float64) Perf {
	tr := v.SimulateSweep(c.DCache, 250, 100)
	loads := v.LoadFactor * flopsPerPoint
	misses := tr.MissRatio * loads
	cycles := flopsPerPoint*c.CPIFlop +
		v.DivsPerPoint*c.DivCycles +
		v.PowsPerPoint*c.PowCycles +
		misses*c.MissPenaltyCycles +
		StoreFactor*flopsPerPoint*c.WriteStallCycles
	sec := cycles / c.ClockHz
	return Perf{
		Chip:            c.Name,
		Version:         v.ID,
		CyclesPerPoint:  cycles,
		MissesPerPoint:  misses,
		EffMFLOPS:       flopsPerPoint / sec / 1e6,
		SecondsPerPoint: sec,
	}
}

// Vector models a Cray-style vector processor with the Hockney
// parameters r_inf (asymptotic MFLOPS) and n_1/2 (half-performance
// vector length), plus an Amdahl scalar fraction.
type Vector struct {
	Name         string
	RInfMFLOPS   float64
	NHalf        float64
	VectorLen    float64 // sustained vector length (the paper partitioned to keep this large)
	ScalarFrac   float64
	ScalarMFLOPS float64
}

// YMP is one Cray Y-MP processor: 333 MFLOPS peak per CPU (2.7 GFLOPS
// across eight).
var YMP = Vector{
	Name: "Cray Y-MP", RInfMFLOPS: 333, NHalf: 40,
	VectorLen: 100, ScalarFrac: 0.03, ScalarMFLOPS: 25,
}

// EffMFLOPS returns the sustained rate for long-running vectorized code.
func (v Vector) EffMFLOPS() float64 {
	vec := v.RInfMFLOPS * v.VectorLen / (v.VectorLen + v.NHalf)
	return 1 / (v.ScalarFrac/v.ScalarMFLOPS + (1-v.ScalarFrac)/vec)
}
