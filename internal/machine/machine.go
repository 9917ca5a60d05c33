// Package machine assembles the substrate models — processors
// (internal/cpu + internal/cache), interconnects (network.go), and
// message-passing libraries (library.go) — into the paper's five
// platform families, and co-simulates the solver's communication
// schedule on them with a discrete-event engine (engine.go).
//
// The workload driving the co-simulation is the application
// characterization of Table 1 (internal/trace): per-rank FLOPs per step
// and the exact exchange schedule of internal/par. Execution time
// splits into the paper's two additive components: processor busy time
// (compute plus library CPU overheads) and non-overlapped communication
// time (receive/rendezvous blocking).
package machine

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/decomp"
	"repro/internal/kernels"
	"repro/internal/trace"
)

// Platform is one hardware/software configuration from the paper.
type Platform struct {
	Name     string
	MaxProcs int
	// Chip is the scalar node model (nil for the vector Y-MP).
	Chip *cpu.Chip
	// Vec is the vector processor model (Y-MP only).
	Vec *cpu.Vector
	// NewNetwork builds a fresh network state for one run.
	NewNetwork func(procs int) Network
	Lib        Library
	// LibHostFactor scales library costs down on faster hosts (the PVM
	// daemons are CPU work on the node itself). Zero means 1.
	LibHostFactor float64
	// DOALLForkS is the per-parallel-region fork/join cost (Y-MP).
	DOALLForkS float64
	// FixedOverheadS models constant run overhead (the Y-MP connect
	// time includes I/O the authors could not separate).
	FixedOverheadS float64
}

// The paper's platforms.
var (
	LACE560Ethernet = Platform{Name: "LACE/560 Ethernet", MaxProcs: 16, Chip: &cpu.RS560, NewNetwork: NewEthernet, Lib: PVM}
	LACE560AllnodeS = Platform{Name: "LACE/560 ALLNODE-S", MaxProcs: 16, Chip: &cpu.RS560, NewNetwork: NewAllnodeS, Lib: PVM}
	LACE560FDDI     = Platform{Name: "LACE/560 FDDI", MaxProcs: 16, Chip: &cpu.RS560, NewNetwork: NewFDDI, Lib: PVM}
	LACE590AllnodeF = Platform{Name: "LACE/590 ALLNODE-F", MaxProcs: 16, Chip: &cpu.RS590, NewNetwork: NewAllnodeF, Lib: PVM, LibHostFactor: 1.55}
	LACE590ATM      = Platform{Name: "LACE/590 ATM", MaxProcs: 16, Chip: &cpu.RS590, NewNetwork: NewATM, Lib: PVM, LibHostFactor: 1.55}
	SPMPL           = Platform{Name: "IBM SP (MPL)", MaxProcs: 16, Chip: &cpu.RS370, NewNetwork: NewSPSwitch, Lib: MPL}
	SPPVMe          = Platform{Name: "IBM SP (PVMe)", MaxProcs: 16, Chip: &cpu.RS370, NewNetwork: NewSPSwitch, Lib: PVMe}
	T3D             = Platform{Name: "Cray T3D", MaxProcs: 16, Chip: &cpu.AlphaT3D, NewNetwork: NewT3DTorus, Lib: CrayPVM}
	YMP             = Platform{Name: "Cray Y-MP", MaxProcs: 8, Vec: &cpu.YMP, DOALLForkS: 25e-6, FixedOverheadS: 25}
)

// RankOutcome is one simulated rank's profile, in seconds of the full
// (Char.Steps) run.
type RankOutcome struct {
	Busy float64
	Wait float64
}

// Outcome summarizes a platform co-simulation.
type Outcome struct {
	Platform string
	Procs    int
	// Seconds is the execution time: max over ranks of busy+wait.
	Seconds float64
	// BusySeconds is the max per-rank busy time (compute + library CPU).
	BusySeconds float64
	// WaitSeconds is the max per-rank non-overlapped communication time.
	WaitSeconds float64
	PerRank     []RankOutcome
}

// DefaultSimSteps is the number of time steps actually event-simulated;
// results scale linearly to the full run (the schedule is periodic).
const DefaultSimSteps = 200

// EffMFLOPS returns the platform's sustained per-processor rate on the
// given workload (kernel Version 5, the version all parallel runs use).
func (p Platform) EffMFLOPS(ch trace.Characterization) float64 {
	if p.Vec != nil {
		return p.Vec.EffMFLOPS()
	}
	return p.Chip.Evaluate(kernels.V(5), ch.FlopsPerPoint).EffMFLOPS
}

// Simulate runs the application characterization on procs processors
// with the given communication version (5, 6, or 7). A TimeSlices > 1
// characterization routes to the Parareal schedule.
func (p Platform) Simulate(ch trace.Characterization, procs, commVersion int) (Outcome, error) {
	if ch.TimeSlices > 1 {
		return p.SimulateParareal(ch, procs, commVersion)
	}
	return p.SimulateSteps(ch, procs, commVersion, DefaultSimSteps)
}

// SimulateSteps is Simulate with explicit event-simulated step count.
// It runs the paper's uniform axial decomposition; SimulateDecomp
// accepts a caller-built (possibly cost-weighted) decomposition.
func (p Platform) SimulateSteps(ch trace.Characterization, procs, commVersion, simSteps int) (Outcome, error) {
	if procs < 1 {
		return Outcome{}, fmt.Errorf("machine: %s supports 1..%d processors, got %d", p.Name, p.MaxProcs, procs)
	}
	d, err := decomp.Axial(ch.Nx, procs)
	if err != nil {
		return Outcome{}, err
	}
	return p.SimulateDecomp(ch, d, commVersion, simSteps)
}

// SimulateDecomp co-simulates the characterization on an explicit
// axial decomposition — typically decomp.WeightedAxial over the same
// per-column cost profile as ch.ColCost, the predicted counterpart of
// a measured load-balanced run.
func (p Platform) SimulateDecomp(ch trace.Characterization, d *decomp.Decomposition, commVersion, simSteps int) (Outcome, error) {
	procs := d.P
	if procs < 1 || procs > p.MaxProcs {
		return Outcome{}, fmt.Errorf("machine: %s supports 1..%d processors, got %d", p.Name, p.MaxProcs, procs)
	}
	if d.Nx != ch.Nx {
		return Outcome{}, fmt.Errorf("machine: decomposition covers %d columns, characterization has %d", d.Nx, ch.Nx)
	}
	if ch.ColCost != nil && len(ch.ColCost) != ch.Nx {
		return Outcome{}, fmt.Errorf("machine: %d-entry cost profile for %d columns", len(ch.ColCost), ch.Nx)
	}
	if ch.HaloDepth > 1 && procs > 1 {
		ext := trace.WideExtension(ch.Viscous, ch.HaloDepth)
		for r := 0; r < procs; r++ {
			if _, n := d.Range(r); n < ext+2 {
				return Outcome{}, fmt.Errorf("machine: halo depth %d needs a %d-point redundant shell plus the 2-point exchange window, but rank %d owns only %d columns", ch.HaloDepth, ext, r, n)
			}
		}
	}
	if ch.ReduceGroup > procs {
		return Outcome{}, fmt.Errorf("machine: reduce group %d exceeds the %d ranks of the run", ch.ReduceGroup, procs)
	}
	if p.Vec != nil {
		return p.simulateVector(ch, procs), nil
	}
	switch commVersion {
	case 5, 6, 7:
	default:
		return Outcome{}, fmt.Errorf("machine: unknown communication version %d", commVersion)
	}
	if simSteps < 1 {
		simSteps = DefaultSimSteps
	}
	if procs == 1 {
		// No communication: pure single-processor execution.
		sec := ch.TotalFlops() / (p.EffMFLOPS(ch) * 1e6)
		return Outcome{Platform: p.Name, Procs: 1, Seconds: sec, BusySeconds: sec,
			PerRank: []RankOutcome{{Busy: sec}}}, nil
	}
	cs := newCosim(p, ch, d, commVersion, simSteps)
	cs.run()
	scale := float64(ch.Steps) / float64(simSteps)
	out := Outcome{Platform: p.Name, Procs: procs}
	for _, r := range cs.ranks {
		ro := RankOutcome{Busy: r.busy * scale, Wait: r.wait * scale}
		out.PerRank = append(out.PerRank, ro)
		if ro.Busy > out.BusySeconds {
			out.BusySeconds = ro.Busy
		}
		if ro.Wait > out.WaitSeconds {
			out.WaitSeconds = ro.Wait
		}
		if t := ro.Busy + ro.Wait; t > out.Seconds {
			out.Seconds = t
		}
	}
	return out, nil
}

// simulateVector models the Y-MP DOALL execution: near-perfect loop
// parallelism with a small fork/join cost per parallel region and the
// paper's inseparable I/O constant.
func (p Platform) simulateVector(ch trace.Characterization, procs int) Outcome {
	w := ch.TotalFlops()
	busy := w / (float64(procs) * p.Vec.EffMFLOPS() * 1e6)
	// ~12 DOALL regions per composite step (see internal/solver).
	sync := float64(ch.Steps) * 12 * p.DOALLForkS * float64(procs-1) / float64(max(procs, 1))
	sec := busy + sync + p.FixedOverheadS
	per := make([]RankOutcome, procs)
	for i := range per {
		per[i] = RankOutcome{Busy: busy, Wait: sync}
	}
	return Outcome{Platform: p.Name, Procs: procs, Seconds: sec, BusySeconds: busy + p.FixedOverheadS, WaitSeconds: sync, PerRank: per}
}
