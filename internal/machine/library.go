package machine

// The message-passing libraries of the paper, modeled by their
// per-message CPU overheads (packing, copies, context switches between
// the application and the network layers — the overheads the paper's
// conclusion singles out), daemon/stack latency, and eager vs blocking
// (rendezvous) send semantics.
//
// Costs are one-way user-process costs calibrated to mid-1990s
// measurements of each library; the internal/study claims (printed by
// cmd/figures) pin the platform orderings the calibration must
// reproduce.

// Library describes one message-passing library.
type Library struct {
	Name string
	// SendSetupS/SendPerByteS: sender CPU time per message (busy time).
	SendSetupS   float64
	SendPerByteS float64
	// RecvSetupS/RecvPerByteS: receiver CPU time per message.
	RecvSetupS   float64
	RecvPerByteS float64
	// LatencyS: library/daemon transit latency outside the CPU (lands in
	// waiting, not busy, time).
	LatencyS float64
	// PerByteLatencyS: wire-side per-byte forwarding cost of the library
	// path (the PVM daemons' store-and-forward throughput limit). Lands
	// in waiting time.
	PerByteLatencyS float64
	// Rendezvous: blocking send semantics — the sender stalls until the
	// matching receive is posted (the constrained MPL mode the paper was
	// forced to use).
	Rendezvous bool
}

// SendCPU returns the sender busy time for a message of n bytes.
func (m Library) SendCPU(n int) float64 { return m.SendSetupS + float64(n)*m.SendPerByteS }

// RecvCPU returns the receiver busy time for a message of n bytes.
func (m Library) RecvCPU(n int) float64 { return m.RecvSetupS + float64(n)*m.RecvPerByteS }

// The paper's libraries.
var (
	// PVM 3.2.2, off-the-shelf, on LACE: user data funnels through the
	// pvmd daemons over UDP — two extra copies and two context switches
	// per message. This is the dominant cost the paper's conclusion
	// calls out for NOW platforms.
	PVM = Library{
		Name:       "PVM",
		SendSetupS: 1.0e-3, SendPerByteS: 35e-9,
		RecvSetupS: 0.9e-3, RecvPerByteS: 30e-9,
		LatencyS: 2.5e-3, PerByteLatencyS: 1.1e-6,
	}
	// PVMe, IBM's customized PVM for the SP: bypasses UDP but keeps the
	// PVM daemon structure and copy path.
	PVMe = Library{
		Name:       "PVMe",
		SendSetupS: 3.5e-3, SendPerByteS: 300e-9,
		RecvSetupS: 3.0e-3, RecvPerByteS: 300e-9,
		LatencyS: 0.8e-3, PerByteLatencyS: 100e-9,
	}
	// MPL, IBM's native library: user-space access to the switch, but
	// the available send primitive blocks (rendezvous).
	MPL = Library{
		Name:       "MPL",
		SendSetupS: 45e-6, SendPerByteS: 9e-9,
		RecvSetupS: 40e-6, RecvPerByteS: 9e-9,
		LatencyS:   25e-6,
		Rendezvous: true,
	}
	// CrayPVM, Cray's customized PVM for the T3D: thin layer over the
	// torus with small setup cost (the paper: "a relatively small setup
	// cost").
	CrayPVM = Library{
		Name:       "Cray PVM",
		SendSetupS: 30e-6, SendPerByteS: 5e-9,
		RecvSetupS: 25e-6, RecvPerByteS: 5e-9,
		LatencyS: 12e-6,
	}
)
