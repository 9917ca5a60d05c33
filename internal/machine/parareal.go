package machine

import (
	"fmt"

	"repro/internal/decomp"
	"repro/internal/trace"
)

// SimulateParareal prices a parallel-in-time run: the processor pool
// splits into ch.TimeSlices groups of procs/TimeSlices ranks, each
// owning one slice of [0, Steps]. The schedule is the pipelined
// Parareal coordinator's (the serial loop of internal/study computes the
// same iterates one slice after another):
//
//	total = init coarse sweep
//	      + iters x ( fine slice, parallel across groups
//	               + correction coarse sweep, serial across slices
//	               + (K-1) slice-boundary state handoffs )
//
// The fine slice is the platform's own co-simulated spatial run of the
// longest slice on procs/K ranks (same decomposition, library, and
// network models as Simulate). The coarse sweep is a serial
// CoarseFactor-coarsened MacCormack propagation of one slice, repeated
// K times because the sweep is inherently sequential. Handoffs carry
// the full conservative state (trace.PararealHandoffBytes) through the
// same message-passing library and interconnect as the halo exchanges.
// The Y-MP prices handoffs and sweeps at memory speed (free at this
// model's resolution), keeping only the compute terms.
func (p Platform) SimulateParareal(ch trace.Characterization, procs, commVersion int) (Outcome, error) {
	k := ch.TimeSlices
	if k < 2 {
		return Outcome{}, fmt.Errorf("machine: parareal needs at least 2 time slices, got %d", k)
	}
	if procs < k || procs%k != 0 {
		return Outcome{}, fmt.Errorf("machine: %d processors do not split evenly over %d time slices", procs, k)
	}
	if procs > p.MaxProcs {
		return Outcome{}, fmt.Errorf("machine: %s supports 1..%d processors, got %d", p.Name, p.MaxProcs, procs)
	}
	slices, err := decomp.TimeSlices(ch.Steps, k)
	if err != nil {
		return Outcome{}, err
	}
	iters := ch.PararealIters
	if iters < 1 || iters > k {
		iters = k
	}
	c := ch.CoarseFactor
	if c < 1 {
		c = 2
	}
	ps := procs / k

	// The critical path runs through the widest slice.
	sliceSteps := 0
	for s := 0; s < slices.P; s++ {
		if _, n := slices.Range(s); n > sliceSteps {
			sliceSteps = n
		}
	}

	// Fine propagation of one slice on ps ranks: the ordinary spatial
	// co-simulation, stripped of the parallel-in-time fields.
	chF := ch
	chF.Steps = sliceSteps
	chF.TimeSlices, chF.PararealIters, chF.CoarseFactor = 0, 0, 0
	simSteps := DefaultSimSteps
	if sliceSteps < simSteps {
		simSteps = sliceSteps
	}
	fine, err := p.SimulateSteps(chF, ps, commVersion, simSteps)
	if err != nil {
		return Outcome{}, err
	}

	// Coarse propagation of one slice: serial, on a grid coarsened by c
	// in both directions, stepping c-fold larger time steps.
	nxc, nrc := ch.Nx/c, ch.Nr/c
	if nxc < 1 {
		nxc = 1
	}
	if nrc < 1 {
		nrc = 1
	}
	m := (sliceSteps + c - 1) / c
	coarse := ch.FlopsPerPoint * float64(nxc*nrc*m) / (p.EffMFLOPS(ch) * 1e6)

	// One slice-boundary handoff: full state through the library and
	// the wire. The Y-MP moves it through shared memory — free here.
	handoff := 0.0
	if p.Vec == nil {
		hostF := p.LibHostFactor
		if hostF == 0 {
			hostF = 1
		}
		bytes := ch.PararealHandoffBytes()
		net := p.NewNetwork(procs)
		wire := net.Transfer(0, 0, 1, bytes)
		handoff = (p.Lib.SendCPU(bytes)+p.Lib.RecvCPU(bytes)+p.Lib.LatencyS)/hostF +
			wire + float64(bytes)*p.Lib.PerByteLatencyS/hostF
	}

	// The pipelined init sweep and each correction sweep serialize K
	// coarse evaluations and K-1 handoffs end to end.
	sweep := float64(k)*coarse + float64(k-1)*handoff
	total := sweep + float64(iters)*(fine.Seconds+sweep)
	busy := float64(iters)*fine.BusySeconds + float64(1+iters)*coarse

	out := Outcome{
		Platform:    p.Name,
		Procs:       procs,
		Seconds:     total,
		BusySeconds: busy,
		WaitSeconds: total - busy,
	}
	// Per-rank view: every rank computes iters fine slices plus its own
	// coarse evaluations; the rest of the critical path is wait.
	for r := 0; r < procs; r++ {
		fr := fine.PerRank[r%ps]
		b := float64(iters)*fr.Busy + float64(1+iters)*coarse
		w := total - b
		if w < 0 {
			w = 0
		}
		out.PerRank = append(out.PerRank, RankOutcome{Busy: b, Wait: w})
	}
	return out, nil
}
