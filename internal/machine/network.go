package machine

import "fmt"

// The interconnects of the paper's Section 4, modeled as stateful
// contention networks over resource timelines:
//
//	Ethernet   — 10 Mb/s shared bus, CSMA inefficiency under load
//	FDDI       — 100 Mb/s token ring (shared medium, token latency)
//	ATM        — 155 Mb/s switched, per-port serialization
//	ALLNODE-F  — 64 Mb/s links, multistage with contention-free multipath
//	ALLNODE-S  — 32 Mb/s prototype of the same switch
//	SP switch  — Omega network, 40 MB/s links
//	T3D torus  — 3-D torus, 150 MB/s links, dimension-order routing
//
// A Network owns its state; create a fresh instance per simulation run.

// Network computes message delivery times under contention.
type Network interface {
	Name() string
	// Transfer injects a message of the given payload at time t (seconds)
	// and returns its arrival time at dst.
	Transfer(t float64, from, to int, bytes int) float64
}

func mbps(v float64) float64 { return v * 1e6 / 8 } // megabit/s -> bytes/s

// SharedBus is a single shared medium (Ethernet, and FDDI with a token
// latency). All transfers serialize on the bus; saturation emerges when
// the offered load approaches the medium rate.
type SharedBus struct {
	name string
	// RateBps is the medium bandwidth in bytes/second.
	RateBps float64
	// PerFrameS is medium access overhead per message (preamble, token
	// rotation, inter-frame gaps aggregated).
	PerFrameS float64
	// CSMAFactor inflates occupancy under contention: when a transfer
	// finds the bus busy, its occupancy is multiplied by this factor
	// (collision/backoff inefficiency). 1 = no inflation.
	CSMAFactor float64
	// BurstBytes is the adapter buffer: a message larger than this that
	// meets a busy medium overflows and pays OverflowPenaltyS
	// (retransmission). This is the paper's "bursty communication could
	// overwhelm the network's throughput capacity temporarily" — and
	// why Version 7's one-column sends help Ethernet.
	BurstBytes       int
	OverflowPenaltyS float64
	// LatencyS is the propagation/adapter latency added after the bus.
	LatencyS float64
	bus      Resource
}

// NewEthernet returns the LACE 10 Mb/s shared Ethernet.
func NewEthernet(procs int) Network {
	return &SharedBus{name: "Ethernet", RateBps: mbps(10), PerFrameS: 120e-6, CSMAFactor: 1.25,
		BurstBytes: 4096, OverflowPenaltyS: 3e-3, LatencyS: 150e-6}
}

// NewFDDI returns the LACE 100 Mb/s FDDI ring.
func NewFDDI(procs int) Network {
	return &SharedBus{name: "FDDI", RateBps: mbps(100), PerFrameS: 250e-6, CSMAFactor: 1.0, LatencyS: 100e-6}
}

// Name implements Network.
func (s *SharedBus) Name() string { return s.name }

// Transfer implements Network.
func (s *SharedBus) Transfer(t float64, from, to, bytes int) float64 {
	dur := float64(bytes)/s.RateBps + s.PerFrameS
	if s.bus.QueueDelay(t) > 0 {
		if s.CSMAFactor > 1 {
			dur *= s.CSMAFactor
		}
		if s.BurstBytes > 0 && bytes > s.BurstBytes {
			dur += s.OverflowPenaltyS
		}
	}
	_, end := s.bus.Acquire(t, dur)
	return end + s.LatencyS
}

// Switched models a switch with per-node input and output ports at the
// link rate and an optional shared internal stage of aggregate capacity
// StageLinks*link rate. The ALLNODE switch configures multiple
// contention-free paths (large StageLinks); the shared stage lets
// saturation appear only at high node counts.
type Switched struct {
	name       string
	LinkBps    float64
	LatencyS   float64
	StageLinks float64 // 0 = unlimited internal capacity
	out        []Resource
	in         []Resource
	stage      Resource
}

// NewATM returns the LACE 155 Mb/s ATM network.
func NewATM(procs int) Network {
	return &Switched{name: "ATM", LinkBps: mbps(155), LatencyS: 120e-6, StageLinks: 0,
		out: make([]Resource, procs), in: make([]Resource, procs)}
}

// NewAllnodeF returns IBM's ALLNODE switch, fast version (64 Mb/s links).
func NewAllnodeF(procs int) Network {
	return &Switched{name: "ALLNODE-F", LinkBps: mbps(64), LatencyS: 80e-6, StageLinks: 8,
		out: make([]Resource, procs), in: make([]Resource, procs)}
}

// NewAllnodeS returns the ALLNODE prototype (32 Mb/s links).
func NewAllnodeS(procs int) Network {
	return &Switched{name: "ALLNODE-S", LinkBps: mbps(32), LatencyS: 90e-6, StageLinks: 8,
		out: make([]Resource, procs), in: make([]Resource, procs)}
}

// NewSPSwitch returns the SP's Omega-topology switch (40 MB/s links).
func NewSPSwitch(procs int) Network {
	return &Switched{name: "SP switch", LinkBps: 40e6, LatencyS: 30e-6, StageLinks: 16,
		out: make([]Resource, procs), in: make([]Resource, procs)}
}

// Name implements Network.
func (s *Switched) Name() string { return s.name }

// Transfer implements Network.
func (s *Switched) Transfer(t float64, from, to, bytes int) float64 {
	dur := float64(bytes) / s.LinkBps
	start := t
	if f := s.out[from].NextFree(); f > start {
		start = f
	}
	if f := s.in[to].NextFree(); f > start {
		start = f
	}
	_, e1 := s.out[from].Acquire(start, dur)
	_, e2 := s.in[to].Acquire(start, dur)
	end := e1
	if e2 > end {
		end = e2
	}
	if s.StageLinks > 0 {
		// The shared internal stage carries every byte at aggregate
		// capacity StageLinks x link rate.
		_, es := s.stage.Acquire(start, float64(bytes)/(s.LinkBps*s.StageLinks))
		if es > end {
			end = es
		}
	}
	return end + s.LatencyS
}

// Torus is the T3D's 3-D torus with dimension-order routing and
// per-direction links between adjacent nodes.
type Torus struct {
	name     string
	Dims     [3]int
	LinkBps  float64
	HopS     float64
	LatencyS float64
	links    map[[2]int]*Resource
}

// NewT3DTorus returns the paper's 64-node torus (8x4x2) restricted to
// the first `procs` nodes (the 16 available in single-user mode).
func NewT3DTorus(procs int) Network {
	return &Torus{
		name: "T3D torus", Dims: [3]int{8, 4, 2},
		LinkBps: 150e6, HopS: 1e-6, LatencyS: 2e-6,
		links: make(map[[2]int]*Resource),
	}
}

// Name implements Network.
func (t *Torus) Name() string { return t.name }

// coords maps a rank to torus coordinates, x-major (matching the axial
// decomposition so neighbouring ranks are usually adjacent nodes).
func (t *Torus) coords(rank int) [3]int {
	x := rank % t.Dims[0]
	y := (rank / t.Dims[0]) % t.Dims[1]
	z := rank / (t.Dims[0] * t.Dims[1])
	return [3]int{x, y, z}
}

// node converts coordinates back to a node id.
func (t *Torus) node(c [3]int) int {
	return c[0] + t.Dims[0]*(c[1]+t.Dims[1]*c[2])
}

// route returns the node sequence of the dimension-order path.
func (t *Torus) route(from, to int) []int {
	path := []int{from}
	c := t.coords(from)
	d := t.coords(to)
	for dim := 0; dim < 3; dim++ {
		for c[dim] != d[dim] {
			n := t.Dims[dim]
			fwd := ((d[dim]-c[dim])%n + n) % n
			if fwd <= n-fwd {
				c[dim] = (c[dim] + 1) % n
			} else {
				c[dim] = (c[dim] - 1 + n) % n
			}
			path = append(path, t.node(c))
		}
	}
	return path
}

// link returns the resource for a directed link.
func (t *Torus) link(a, b int) *Resource {
	k := [2]int{a, b}
	r, ok := t.links[k]
	if !ok {
		r = &Resource{}
		t.links[k] = r
	}
	return r
}

// Transfer implements Network with wormhole-style pipelining: the
// message occupies every link of its path for bytes/rate, starting when
// all are free (an approximation that is exact for the solver's
// single-hop neighbour traffic).
func (t *Torus) Transfer(tm float64, from, to, bytes int) float64 {
	if from == to {
		panic(fmt.Sprintf("machine: self transfer at node %d", from))
	}
	path := t.route(from, to)
	dur := float64(bytes) / t.LinkBps
	start := tm
	for i := 0; i+1 < len(path); i++ {
		if f := t.link(path[i], path[i+1]).NextFree(); f > start {
			start = f
		}
	}
	end := start + dur
	for i := 0; i+1 < len(path); i++ {
		t.link(path[i], path[i+1]).Acquire(start, dur)
	}
	hops := float64(len(path) - 1)
	return end + hops*t.HopS + t.LatencyS
}
