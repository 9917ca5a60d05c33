package machine

import (
	"repro/internal/decomp"
	"repro/internal/msg"
	"repro/internal/trace"
)

// opKind enumerates the primitive operations of a rank's program.
type opKind int

const (
	opCompute opKind = iota
	opSend
	opRecv
)

// op is one step-program entry.
type op struct {
	kind  opKind
	peer  int
	bytes int
	dur   float64 // compute seconds
}

// rank is one simulated processor's state machine.
type rank struct {
	id    int
	prog  []op // one exchange step's program, repeated
	skip  []op // one exchange-free step's program (Wide policies only)
	depth int  // exchange cadence: 1 = every step (Fresh)
	rprog []op // global-reduction collectives, appended on monitored steps
	// inReduce marks that pc indexes rprog instead of prog.
	inReduce bool
	pc       int
	step     int
	busy     float64
	wait     float64
}

// cur returns the program pc currently indexes: the collective when one
// is in progress, the compute-only program on a Wide policy's
// exchange-free steps, and the exchange program otherwise.
func (r *rank) cur() []op {
	if r.inReduce {
		return r.rprog
	}
	if r.depth > 1 && r.step%r.depth != 0 {
		return r.skip
	}
	return r.prog
}

// pendingRecv is a posted receive waiting for data.
type pendingRecv struct {
	postedAt float64
	dstRank  *rank
}

// inFlight is an eager message delivered (or in transit) to a mailbox.
type inFlight struct {
	arrival float64
	bytes   int
}

// pair is a directed (from, to) channel key.
type pair struct{ from, to int }

// cosim is the discrete-event co-simulation of one run.
type cosim struct {
	p     Platform
	ch    trace.Characterization
	eng   *Engine
	net   Network
	ranks []*rank
	steps int
	hostF float64
	// daemons serializes each host's library forwarding work (the PVM
	// daemon store-and-forward path): split messages do not pipeline in
	// parallel, which is why Version 7 costs startups on fast switches.
	daemons []Resource
	// Mailboxes of messages sent or in flight, FIFO per directed pair.
	mail map[pair][]inFlight
	// Posted receives blocked on empty mailboxes.
	recvs map[pair][]pendingRecv
}

// v6BusyPenalty is the paper's observed Version 6 cost: split loops and
// lost temporal locality offset the overlap gain.
const v6BusyPenalty = 1.04

// newCosim builds rank programs from the decomposition and the exchange
// schedule of internal/par. The decomposition may be cost-weighted:
// each rank's compute time scales with its owned share of the
// characterization's per-column cost profile (uniform when nil), so
// the co-simulated busy times reproduce the Figure 13 skew — and its
// cure when the same profile feeds decomp.WeightedAxial.
func newCosim(p Platform, ch trace.Characterization, d *decomp.Decomposition, commVersion, steps int) *cosim {
	hostF := p.LibHostFactor
	if hostF == 0 {
		hostF = 1
	}
	cs := &cosim{
		p: p, ch: ch,
		eng:     NewEngine(),
		net:     p.NewNetwork(d.P),
		steps:   steps,
		hostF:   hostF,
		daemons: make([]Resource, d.P),
		mail:    make(map[pair][]inFlight),
		recvs:   make(map[pair][]pendingRecv),
	}
	eff := p.EffMFLOPS(ch) * 1e6
	msgBytes := ch.MessageBytes()
	depth := ch.HaloDepth
	if depth < 1 {
		depth = 1
	}
	ext := trace.WideExtension(ch.Viscous, depth)
	if d.P == 1 {
		ext, depth = 0, 1 // no interior sides: Wide degenerates to Fresh
	}
	for r := 0; r < d.P; r++ {
		i0, ncols := d.Range(r)
		left, right := r-1, r+1
		if right == d.P {
			right = -1
		}
		// A Wide policy's redundant shell inflates the rank's compute to
		// the extended rectangle (ext extra columns per interior side).
		extL, extR := 0, 0
		if left >= 0 {
			extL = ext
		}
		if right >= 0 {
			extR = ext
		}
		flopsPerStep := ch.FlopsPerPoint * ch.BlockCost(i0-extL, ncols+extL+extR) * float64(ch.Nr)
		computeSec := flopsPerStep / eff
		exCompute := computeSec
		if commVersion == 6 {
			// The split-loop penalty applies to exchange steps only — the
			// solver computes a Version-6 core only when an exchange is
			// actually in flight.
			exCompute *= v6BusyPenalty
		}
		var prog []op
		if ext > 0 {
			// Exchange steps open with the redundant-shell refresh: ext
			// ghost columns per interior neighbour, one message each way.
			rb := ch.RefreshBytes(ext)
			prog = appendSends(prog, left, right, rb, 1)
			prog = appendRecvs(prog, left, right, rb, 1)
		}
		chunk := exCompute / float64(ch.ExchangesPerStep)
		for e := 0; e < ch.ExchangesPerStep; e++ {
			// The non-initial exchanges carry flux columns; Version 7
			// splits those into one-column messages (DESIGN.md §5).
			parts := 1
			if commVersion == 7 && e >= 1 {
				parts = 2
			}
			if commVersion == 6 && e == 0 {
				// Version 6 overlaps only the velocity/temperature
				// exchange: "computing the stress and flux components of
				// the interior part of each subdomain while the processor
				// is waiting for the velocity and temperature vectors".
				prog = appendSends(prog, left, right, msgBytes, parts)
				prog = append(prog, op{kind: opCompute, dur: chunk})
				prog = appendRecvs(prog, left, right, msgBytes, parts)
			} else {
				prog = append(prog, op{kind: opCompute, dur: chunk})
				prog = appendSends(prog, left, right, msgBytes, parts)
				prog = appendRecvs(prog, left, right, msgBytes, parts)
			}
		}
		var skip []op
		if depth > 1 {
			skip = []op{{kind: opCompute, dur: computeSec}}
		}
		cs.ranks = append(cs.ranks, &rank{id: r, prog: prog, skip: skip, depth: depth, rprog: reduceProg(ch, d.P, r)})
	}
	return cs
}

// reduceProg builds the collective program one monitored step appends:
// trace.ReducesPerMonitor recursive-doubling allreduces, each following
// the identical msg.ReducePlan schedule the real collective of
// internal/par runs, with trace.ReduceBytes scalar payloads. The
// messages ride the same library and network models as the halo
// exchanges, so the co-simulated platforms pay the collective-latency
// term — log2(P) serialized small-message rounds — that dominates the
// reduction cost on high-latency interconnects. A ReduceGroup > 1
// prices the hierarchical collective: only node leaders walk the
// (shorter) leaders-only plan, members' intra-node combine being
// memory-speed and therefore free at this model's resolution.
func reduceProg(ch trace.Characterization, procs, rank int) []op {
	if ch.ReduceEvery <= 0 || procs < 2 {
		return nil
	}
	group := ch.ReduceGroup
	if group < 1 {
		group = 1
	}
	plan := msg.ReducePlanLeaders(procs, rank, group)
	var prog []op
	for i := 0; i < trace.ReducesPerMonitor; i++ {
		for _, st := range plan {
			if st.Send {
				prog = append(prog, op{kind: opSend, peer: st.Partner, bytes: trace.ReduceBytes})
			}
			if st.Recv {
				prog = append(prog, op{kind: opRecv, peer: st.Partner, bytes: trace.ReduceBytes})
			}
		}
	}
	return prog
}

// monitored reports whether the collective runs after the given step.
func (cs *cosim) monitored(step int) bool {
	return cs.ch.ReduceEvery > 0 && (step+1)%cs.ch.ReduceEvery == 0
}

func appendSends(prog []op, left, right, bytes, parts int) []op {
	for p := 0; p < parts; p++ {
		if left >= 0 {
			prog = append(prog, op{kind: opSend, peer: left, bytes: bytes / parts})
		}
		if right >= 0 {
			prog = append(prog, op{kind: opSend, peer: right, bytes: bytes / parts})
		}
	}
	return prog
}

func appendRecvs(prog []op, left, right, bytes, parts int) []op {
	for p := 0; p < parts; p++ {
		if left >= 0 {
			prog = append(prog, op{kind: opRecv, peer: left, bytes: bytes / parts})
		}
		if right >= 0 {
			prog = append(prog, op{kind: opRecv, peer: right, bytes: bytes / parts})
		}
	}
	return prog
}

// Library cost helpers, scaled by the host speed factor (daemon and
// copy work executes on the node CPU).
func (cs *cosim) sendCPU(bytes int) float64 { return cs.p.Lib.SendCPU(bytes) / cs.hostF }
func (cs *cosim) recvCPU(bytes int) float64 { return cs.p.Lib.RecvCPU(bytes) / cs.hostF }

// throughDaemon routes a message through the sender's serialized
// library forwarding path starting at t, returning when it reaches the
// network.
func (cs *cosim) throughDaemon(t float64, from, bytes int) float64 {
	fwd := float64(bytes) * cs.p.Lib.PerByteLatencyS / cs.hostF
	if fwd == 0 {
		return t
	}
	_, end := cs.daemons[from].Acquire(t, fwd)
	return end
}

// run executes the co-simulation to completion.
func (cs *cosim) run() {
	for _, r := range cs.ranks {
		r := r
		cs.eng.At(0, func() { cs.advance(r) })
	}
	cs.eng.Run()
}

// advance interprets r's program until it blocks or finishes. Each
// step runs the per-step program, then — on monitored steps — the
// collective program, before the step counter advances.
func (cs *cosim) advance(r *rank) {
	for {
		if r.pc == len(r.cur()) {
			if !r.inReduce && len(r.rprog) > 0 && cs.monitored(r.step) {
				r.inReduce = true
				r.pc = 0
				continue
			}
			r.inReduce = false
			r.pc = 0
			r.step++
			if r.step == cs.steps {
				return
			}
		}
		o := r.cur()[r.pc]
		switch o.kind {
		case opCompute:
			r.pc++
			r.busy += o.dur
			cs.eng.Schedule(o.dur, func() { cs.advance(r) })
			return
		case opSend:
			cs.send(r, o)
			return
		case opRecv:
			cs.recv(r, o)
			return
		}
	}
}

// send processes a send op. The rank always resumes via an event.
// Eager libraries (PVM family) hand the message to the library and
// continue after the CPU overhead; the blocking send of MPL stalls the
// sender through the wire transfer (no communication/computation
// overlap on the send side — the constraint the paper was forced into).
func (cs *cosim) send(r *rank, o op) {
	now := cs.eng.Now()
	cpu := cs.sendCPU(o.bytes)
	r.busy += cpu
	ready := now + cpu
	k := pair{from: r.id, to: o.peer}
	r.pc++
	cs.eng.At(ready, func() {
		injected := cs.throughDaemon(cs.eng.Now(), k.from, o.bytes)
		arrival := cs.net.Transfer(injected, k.from, k.to, o.bytes) + cs.p.Lib.LatencyS/cs.hostF
		cs.deliver(k, inFlight{arrival: arrival, bytes: o.bytes})
		if cs.p.Lib.Rendezvous {
			// Blocking send: resume the sender only when the transfer
			// has drained.
			r.wait += arrival - ready
			cs.eng.At(arrival, func() { cs.advance(r) })
		}
	})
	if !cs.p.Lib.Rendezvous {
		cs.eng.At(ready, func() { cs.advance(r) })
	}
}

// deliver places an eager message in the mailbox and wakes a blocked
// receiver if one is waiting.
func (cs *cosim) deliver(k pair, m inFlight) {
	cs.mail[k] = append(cs.mail[k], m)
	if q := cs.recvs[k]; len(q) > 0 {
		pr := q[0]
		cs.recvs[k] = q[1:]
		wake := m.arrival
		if pr.postedAt > wake {
			wake = pr.postedAt
		}
		dst := pr.dstRank
		cs.eng.At(wake, func() { cs.completeRecv(dst, k, pr.postedAt) })
	}
}

// recv processes a receive op. The rank resumes via an event.
func (cs *cosim) recv(r *rank, o op) {
	now := cs.eng.Now()
	k := pair{from: o.peer, to: r.id}
	// Consume from the mailbox, waiting if the message is still in
	// flight (or not yet sent).
	if q := cs.mail[k]; len(q) > 0 {
		m := q[0]
		cs.mail[k] = q[1:]
		if m.arrival > now {
			r.wait += m.arrival - now
		}
		rcpu := cs.recvCPU(m.bytes)
		r.busy += rcpu
		r.pc++
		at := m.arrival
		if now > at {
			at = now
		}
		cs.eng.At(at+rcpu, func() { cs.advance(r) })
		return
	}
	cs.recvs[k] = append(cs.recvs[k], pendingRecv{postedAt: now, dstRank: r})
}

// completeRecv finishes an eager receive that was blocked at postedAt.
func (cs *cosim) completeRecv(r *rank, k pair, postedAt float64) {
	now := cs.eng.Now()
	q := cs.mail[k]
	m := q[0]
	cs.mail[k] = q[1:]
	r.wait += now - postedAt
	rcpu := cs.recvCPU(m.bytes)
	r.busy += rcpu
	r.pc++
	cs.eng.Schedule(rcpu, func() { cs.advance(r) })
}
