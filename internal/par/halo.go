package par

import (
	"repro/internal/decomp"
	"repro/internal/field"
	"repro/internal/flux"
	"repro/internal/msg"
	"repro/internal/solver"
	"repro/internal/trace"
)

// rankHalo implements solver.Halo over the message layer for one block
// of the rank grid: ghost columns from the left/right neighbours, ghost
// rows from the down/up neighbours (none on the paper's axial-only
// Px×1 shape). Boundary columns are grouped into a
// single send per neighbour per exchange (the paper's
// startup-reduction optimization); Version 7 splits the axial flux
// exchanges into one-column messages to reduce burstiness. The pack and
// unpack staging buffers are sized for the widest exchange at
// construction, so the steady-state exchange path — columns and rows
// alike — allocates nothing.
type rankHalo struct {
	comm    *msg.Comm
	left    int // neighbour ranks, -1 at physical sides
	right   int
	down    int
	up      int
	n       int // local columns (core plus any redundant shell)
	nr      int // local rows (core plus any redundant shell)
	version Version
	// ext is the redundant-shell width of a Wide(k) halo policy, in
	// grid points per interior side (0 under Lagged/Fresh). The slab's
	// local rectangle is grown by ext on every interior side, so the
	// per-stage sends shift inward by 2*ext: the columns a neighbour
	// wants in its ghost slots sit just outside its own shell, 2*ext
	// deep into ours. Refresh re-sends the ext-wide shells themselves.
	ext int

	sendBuf    []float64 // axial (column) staging
	recvBuf    []float64
	rowSendBuf []float64 // radial (row) staging
	rowRecvBuf []float64

	edgeLeft   solver.EdgeHalo
	edgeRight  solver.EdgeHalo
	edgeBottom solver.EdgeHalo
	edgeTop    solver.EdgeHalo

	// dir splits this rank's message accounting by exchange direction
	// (the paper's Table 1 budget is purely axial; the 2-D topology adds
	// a radial share).
	dir trace.DirCounters
}

// newRankHalo builds the halo of one rank-grid block: neighbour exchange
// on interior sides in both directions, physical treatment on domain
// edges — so on a Px×1 shape, where every radial side is physical, FillR
// degenerates to the serial mirror/extrapolation. Exchanges are grouped
// in both directions (the Version 5 message shape, which Version 6 keeps
// — overlap changes when the Start/Finish halves run, not what they
// carry). wall selects the scenario's solid-wall edge treatment (zero
// value = jet).
func newRankHalo(c *msg.Comm, d *decomp.Grid2D, rank, n, nr int, v Version, ext int, wall solver.WallSpec) *rankHalo {
	h := &rankHalo{comm: c, n: n, nr: nr, version: v, ext: ext}
	h.left, h.right, h.down, h.up = d.Neighbors(rank)
	h.edgeLeft = solver.EdgeHalo{Left: h.left < 0, Wall: wall}
	h.edgeRight = solver.EdgeHalo{Right: h.right < 0, Wall: wall}
	h.edgeBottom = solver.EdgeHalo{Bottom: h.down < 0, Wall: wall}
	h.edgeTop = solver.EdgeHalo{Top: h.up < 0, Wall: wall}
	h.sizeBuffers()
	return h
}

// sizeBuffers allocates the staging buffers for the widest exchange in
// each direction — the per-stage ghost width or the refresh's shell
// width, whichever is larger — the capacity the steady-state path never
// exceeds.
func (h *rankHalo) sizeBuffers() {
	wide := field.Halo
	if h.ext > wide {
		wide = h.ext
	}
	colMsg := flux.NVar * wide * h.nr
	h.sendBuf = make([]float64, 0, colMsg)
	h.recvBuf = make([]float64, 0, colMsg)
	if h.down >= 0 || h.up >= 0 {
		rowMsg := flux.NVar * wide * h.n
		h.rowSendBuf = make([]float64, 0, rowMsg)
		h.rowRecvBuf = make([]float64, 0, rowMsg)
	}
}

// Refresh tags sit above the per-stage kind/part space (kinds use
// int(k)*4+part < 24) and below the reducer's tag base (64).
const (
	refreshRowTag msg.Tag = 40
	refreshColTag msg.Tag = 44
)

// tag encodes the exchange kind and the message part (Version 7 splits
// flux exchanges into two parts). Axial and radial exchanges reuse the
// same tag space: they travel on disjoint directed rank pairs.
func tag(k solver.Kind, part int) msg.Tag { return msg.Tag(int(k)*4 + part) }

// fluxKind reports whether an exchange carries flux columns (the ones
// Version 7 de-bursts).
func fluxKind(k solver.Kind) bool { return k == solver.KFlux || k == solver.KPredFlux }

// parts returns how many messages one exchange to one neighbour uses.
func (h *rankHalo) parts(k solver.Kind) int {
	if h.version == V7 && fluxKind(k) {
		return 2
	}
	return 1
}

// pack copies ncols columns starting at c0 of every component into buf,
// growing it only if the constructor-sized capacity is exceeded (which
// does not happen on the solver's exchange schedule).
func pack(b *flux.State, c0, ncols int, buf []float64) []float64 {
	nr := b[0].Nr
	need := flux.NVar * ncols * nr
	if cap(buf) < need {
		buf = make([]float64, need)
	}
	buf = buf[:need]
	o := 0
	for k := 0; k < flux.NVar; k++ {
		o += b[k].PackCols(c0, ncols, buf[o:])
	}
	return buf
}

// unpack scatters buf into ncols columns starting at c0 (ghost columns
// are legal targets).
func unpack(b *flux.State, c0, ncols int, buf []float64) {
	o := 0
	for k := 0; k < flux.NVar; k++ {
		o += b[k].UnpackCols(c0, ncols, buf[o:])
	}
}

// packRows copies nrows rows starting at j0 of every component into
// buf; unpackRows scatters them back (ghost and owned rows are both
// legal targets — the refresh overwrites owned shell rows).
func packRows(b *flux.State, j0, nrows int, buf []float64) []float64 {
	need := flux.NVar * nrows * b[0].Nx
	if cap(buf) < need {
		buf = make([]float64, need)
	}
	buf = buf[:need]
	o := 0
	for k := 0; k < flux.NVar; k++ {
		o += b[k].PackRows(j0, nrows, buf[o:])
	}
	return buf
}

func unpackRows(b *flux.State, j0, nrows int, buf []float64) {
	o := 0
	for k := 0; k < flux.NVar; k++ {
		o += b[k].UnpackRows(j0, nrows, buf[o:])
	}
}

// sendTo groups the boundary columns [c0, c0+2) into parts(k) messages.
func (h *rankHalo) sendTo(to int, k solver.Kind, b *flux.State, c0 int) {
	if h.parts(k) == 1 {
		h.sendBuf = pack(b, c0, field.Halo, h.sendBuf)
		h.dir.Axial.AddMessage(8 * len(h.sendBuf))
		h.comm.Send(to, tag(k, 0), h.sendBuf)
		return
	}
	for p := 0; p < field.Halo; p++ {
		h.sendBuf = pack(b, c0+p, 1, h.sendBuf)
		h.dir.Axial.AddMessage(8 * len(h.sendBuf))
		h.comm.Send(to, tag(k, p), h.sendBuf)
	}
}

// recvFrom receives the neighbour's boundary columns into ghost columns
// starting at c0, staging them through the constructor-sized recvBuf.
func (h *rankHalo) recvFrom(from int, k solver.Kind, b *flux.State, c0 int) {
	nr := b[0].Nr
	if h.parts(k) == 1 {
		need := flux.NVar * field.Halo * nr
		if cap(h.recvBuf) < need {
			h.recvBuf = make([]float64, need)
		}
		h.dir.Axial.Startups++
		h.comm.Recv(from, tag(k, 0), h.recvBuf[:need])
		unpack(b, c0, field.Halo, h.recvBuf[:need])
		return
	}
	need := flux.NVar * nr
	for p := 0; p < field.Halo; p++ {
		h.dir.Axial.Startups++
		h.comm.Recv(from, tag(k, p), h.recvBuf[:need])
		unpack(b, c0+p, 1, h.recvBuf[:need])
	}
}

// Start implements solver.Halo: initiate the sends of one axial
// exchange. With no redundant shell (ext == 0) rank r sends its first
// two owned columns to its left neighbour and its last two to its
// right neighbour; under a Wide policy the neighbour's ghost slots sit
// just outside its own ext-wide shell, which is 2*ext columns into our
// rectangle (our shell plus theirs).
func (h *rankHalo) Start(k solver.Kind, b *flux.State) {
	if h.left >= 0 {
		h.sendTo(h.left, k, b, 2*h.ext)
	}
	if h.right >= 0 {
		h.sendTo(h.right, k, b, h.n-field.Halo-2*h.ext)
	}
}

// Finish implements solver.Halo: complete the receives and apply the
// physical edge treatment where there is no neighbour. The Kind is
// routed through so wall edges can pick the bundle-appropriate mirror
// (the jet treatment is Kind-independent).
func (h *rankHalo) Finish(k solver.Kind, b *flux.State) {
	if h.left >= 0 {
		h.recvFrom(h.left, k, b, -field.Halo)
	} else {
		h.edgeLeft.FillEdgesKind(k, b)
	}
	if h.right >= 0 {
		h.recvFrom(h.right, k, b, h.n)
	} else {
		h.edgeRight.FillEdgesKind(k, b)
	}
}

// Fill implements solver.Halo.
func (h *rankHalo) Fill(k solver.Kind, b *flux.State) {
	h.Start(k, b)
	h.Finish(k, b)
}

// FillEdges implements solver.Halo (edge extrapolation only; interior
// halo ghosts keep their previous — lagged or decaying — contents).
// On a Wide policy's exchange-free steps this replaces a Fill, so each
// interior neighbour's skipped send+receive pair is booked as saved
// startups — the budget the redundant shell buys.
func (h *rankHalo) FillEdges(k solver.Kind, b *flux.State) {
	if h.ext > 0 {
		saved := int64(2 * h.parts(k))
		if h.left >= 0 {
			h.dir.Axial.SavedStartups += saved
		}
		if h.right >= 0 {
			h.dir.Axial.SavedStartups += saved
		}
	}
	h.edgeLeft.FillEdgesKind(k, b)
	h.edgeRight.FillEdgesKind(k, b)
}

// sendRowsTo groups the two boundary rows starting at j0 into one
// message (row exchanges are always grouped: de-bursting targets the
// axial flux messages the paper measured).
func (h *rankHalo) sendRowsTo(to int, k solver.Kind, b *flux.State, j0 int) {
	h.rowSendBuf = packRows(b, j0, field.Halo, h.rowSendBuf)
	h.dir.Radial.AddMessage(8 * len(h.rowSendBuf))
	h.comm.Send(to, tag(k, 0), h.rowSendBuf)
}

// recvRowsFrom receives the neighbour's boundary rows into ghost rows
// starting at j0.
func (h *rankHalo) recvRowsFrom(from int, k solver.Kind, b *flux.State, j0 int) {
	need := flux.NVar * field.Halo * b[0].Nx
	if cap(h.rowRecvBuf) < need {
		h.rowRecvBuf = make([]float64, need)
	}
	h.dir.Radial.Startups++
	h.comm.Recv(from, tag(k, 0), h.rowRecvBuf[:need])
	unpackRows(b, j0, field.Halo, h.rowRecvBuf[:need])
}

// StartR initiates the sends of one radial exchange: the block's first
// two owned rows go to the down neighbour, its last two to the up
// neighbour (shifted inward past both shells under a Wide policy, as
// in Start). Sends are eager, so both go out before any receive blocks.
func (h *rankHalo) StartR(k solver.Kind, b *flux.State) {
	if h.down >= 0 {
		h.sendRowsTo(h.down, k, b, 2*h.ext)
	}
	if h.up >= 0 {
		h.sendRowsTo(h.up, k, b, h.nr-field.Halo-2*h.ext)
	}
}

// FinishR completes the receives of one radial exchange and applies the
// axis mirror / far-field extrapolation where the block touches the
// physical boundary.
func (h *rankHalo) FinishR(k solver.Kind, b *flux.State) {
	if h.down >= 0 {
		h.recvRowsFrom(h.down, k, b, -field.Halo)
	} else {
		h.edgeBottom.FillREdgesKind(k, b)
	}
	if h.up >= 0 {
		h.recvRowsFrom(h.up, k, b, h.nr)
	} else {
		h.edgeTop.FillREdgesKind(k, b)
	}
}

// ReceiveR implements solver.Halo: complete only the interior-side
// receives of one radial exchange. The overlapped operators pair it
// with an eager FillREdges, whose inputs (owned boundary rows) are
// unchanged by the exchange — so skipping the edge re-application here
// drops duplicated work, not information.
func (h *rankHalo) ReceiveR(k solver.Kind, b *flux.State) {
	if h.down >= 0 {
		h.recvRowsFrom(h.down, k, b, -field.Halo)
	}
	if h.up >= 0 {
		h.recvRowsFrom(h.up, k, b, h.nr)
	}
}

// FillR implements solver.Halo: exchange the two ghost rows with the
// down/up neighbours, physical treatment elsewhere.
func (h *rankHalo) FillR(k solver.Kind, b *flux.State) {
	h.StartR(k, b)
	h.FinishR(k, b)
}

// FillREdges implements solver.Halo (physical radial treatment only;
// interior ghost rows keep their previous — lagged or decaying —
// contents). Saved startups are booked as in FillEdges.
func (h *rankHalo) FillREdges(k solver.Kind, b *flux.State) {
	if h.ext > 0 {
		if h.down >= 0 {
			h.dir.Radial.SavedStartups += 2
		}
		if h.up >= 0 {
			h.dir.Radial.SavedStartups += 2
		}
	}
	h.edgeBottom.FillREdgesKind(k, b)
	h.edgeTop.FillREdgesKind(k, b)
}

// Refresh implements solver.Halo: re-exchange the ext-wide redundant
// shells of a Wide(k) policy, resetting their staleness before an
// exchange step. Two ordered phases keep the shell corners of the 2-D
// decomposition correct: rows first at the full extended width, then
// columns at the full extended height — the column payload's corner
// rows are the just-refreshed down/up shell data, so a diagonal
// neighbour's contribution arrives relayed through the shared row
// neighbour, exactly as the per-stage corner fills do. Within each
// phase all sends go out before any receive blocks (the message layer
// buffers them), so the phase ordering cannot deadlock.
func (h *rankHalo) Refresh(b *flux.State) {
	e := h.ext
	if e == 0 {
		return
	}
	// Phase 1: radial. My down neighbour's shell covers my first e core
	// rows — local rows [e, 2e); symmetrically for up. Their shell data
	// for me lands in my shell rows [0, e) and [nr-e, nr).
	if h.down >= 0 {
		h.rowSendBuf = packRows(b, e, e, h.rowSendBuf)
		h.dir.Radial.AddMessage(8 * len(h.rowSendBuf))
		h.comm.Send(h.down, refreshRowTag, h.rowSendBuf)
	}
	if h.up >= 0 {
		h.rowSendBuf = packRows(b, h.nr-2*e, e, h.rowSendBuf)
		h.dir.Radial.AddMessage(8 * len(h.rowSendBuf))
		h.comm.Send(h.up, refreshRowTag, h.rowSendBuf)
	}
	rowNeed := flux.NVar * e * b[0].Nx
	if h.down >= 0 {
		h.dir.Radial.Startups++
		h.comm.Recv(h.down, refreshRowTag, h.rowRecvBuf[:rowNeed])
		unpackRows(b, 0, e, h.rowRecvBuf[:rowNeed])
	}
	if h.up >= 0 {
		h.dir.Radial.Startups++
		h.comm.Recv(h.up, refreshRowTag, h.rowRecvBuf[:rowNeed])
		unpackRows(b, h.nr-e, e, h.rowRecvBuf[:rowNeed])
	}
	// Phase 2: axial, full extended height (including the rows phase 1
	// just refreshed).
	if h.left >= 0 {
		h.sendBuf = pack(b, e, e, h.sendBuf)
		h.dir.Axial.AddMessage(8 * len(h.sendBuf))
		h.comm.Send(h.left, refreshColTag, h.sendBuf)
	}
	if h.right >= 0 {
		h.sendBuf = pack(b, h.n-2*e, e, h.sendBuf)
		h.dir.Axial.AddMessage(8 * len(h.sendBuf))
		h.comm.Send(h.right, refreshColTag, h.sendBuf)
	}
	colNeed := flux.NVar * e * b[0].Nr
	if h.left >= 0 {
		h.dir.Axial.Startups++
		h.comm.Recv(h.left, refreshColTag, h.recvBuf[:colNeed])
		unpack(b, 0, e, h.recvBuf[:colNeed])
	}
	if h.right >= 0 {
		h.dir.Axial.Startups++
		h.comm.Recv(h.right, refreshColTag, h.recvBuf[:colNeed])
		unpack(b, h.n-e, e, h.recvBuf[:colNeed])
	}
}
