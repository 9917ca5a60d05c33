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
// of the rank grid. It trades interior ghosts only — the slab fills its
// physical sides itself — so both directions run one code path over an
// axis: ghost columns with the left/right neighbours, ghost rows with
// the down/up neighbours (none on the paper's Px×1 shape). The two
// strips a neighbour needs travel as one message per exchange (the
// paper's startup-reduction optimization); Version 7 splits the flux
// exchanges into one-strip messages to reduce burstiness. The staging
// buffers are sized for the widest exchange at construction, so the
// steady-state exchange path allocates nothing.
type rankHalo struct {
	comm    *msg.Comm
	version Version
	// ext is the redundant-shell width of a Wide(k) halo policy, in
	// grid points per interior side (0 under Lagged/Fresh). The slab's
	// local rectangle is grown by ext on every interior side, so the
	// per-stage sends shift inward by 2*ext: the strips a neighbour
	// wants in its ghost slots sit just outside its own shell, 2*ext
	// deep into ours. Refresh re-sends the ext-wide shells themselves.
	ext int
	ax  [2]axis // indexed by solver.Dir

	// dir splits this rank's message accounting by exchange direction
	// (the paper's Table 1 budget is purely axial; the 2-D topology adds
	// a radial share).
	dir trace.DirCounters
}

// axis is one exchange direction of a rankHalo. A strip is one column
// (Axial) or one row (Radial) of every bundle component.
type axis struct {
	d      solver.Dir
	lo, hi int // neighbour ranks on the left/down and right/up sides, -1 at physical sides
	n      int // local strips along the direction (core plus any redundant shell)
	count  *trace.Counters
	send   []float64
	recv   []float64
}

// packStrip and unpackStrip copy strips between a field and a message
// buffer, per direction; ghost strips are legal on both sides.
var (
	packStrip = [2]func(f *field.Field, at, n int, dst []float64) int{
		solver.Axial:  (*field.Field).PackCols,
		solver.Radial: (*field.Field).PackRows,
	}
	unpackStrip = [2]func(f *field.Field, at, n int, src []float64) int{
		solver.Axial:  (*field.Field).UnpackCols,
		solver.Radial: (*field.Field).UnpackRows,
	}
)

// newRankHalo builds the halo of one rank-grid block of n columns by nr
// rows, redundant shell included. Exchanges are grouped in both
// directions (the Version 5 message shape, which Version 6 keeps —
// overlap changes when the Start/Finish halves run, not what they
// carry).
func newRankHalo(c *msg.Comm, d *decomp.Grid2D, rank, n, nr int, v Version, ext int) *rankHalo {
	h := &rankHalo{comm: c, version: v, ext: ext}
	left, right, down, up := d.Neighbors(rank)
	h.ax[solver.Axial] = axis{d: solver.Axial, lo: left, hi: right, n: n, count: &h.dir.Axial}
	h.ax[solver.Radial] = axis{d: solver.Radial, lo: down, hi: up, n: nr, count: &h.dir.Radial}
	// Stage the widest exchange — the per-stage ghost width or the
	// refresh's shell width — of strips as long as the other extent.
	wide := max(field.Halo, ext)
	for i, strip := range [2]int{solver.Axial: nr, solver.Radial: n} {
		h.ax[i].send = make([]float64, 0, flux.NVar*wide*strip)
		h.ax[i].recv = make([]float64, 0, flux.NVar*wide*strip)
	}
	return h
}

// refreshTag marks the Wide shell refresh. It sits above the per-stage
// kind/part space (kinds use int(k)*4+part < 24) and below the
// reducer's tag base (64).
const refreshTag msg.Tag = 40

// tag encodes the exchange kind and the message part (Version 7 splits
// flux exchanges into two parts). Axial and radial exchanges reuse the
// same tag space: they travel on disjoint directed rank pairs.
func tag(k solver.Kind, part int) msg.Tag { return msg.Tag(int(k)*4 + part) }

// width returns how many strips one message of an exchange carries: the
// whole two-strip ghost layer, or one strip for Version 7's de-burst
// flux messages (the runner admits V7 only on the Px×1 shape, so those
// are always axial).
func (h *rankHalo) width(k solver.Kind) int {
	if h.version == V7 && k.Flux() {
		return 1
	}
	return field.Halo
}

// stripLen is the number of points in one strip of b.
func (a *axis) stripLen(b *flux.State) int {
	if a.d == solver.Axial {
		return b[0].Nr
	}
	return b[0].Nx
}

// sized reslices buf to need values, reallocating only if the
// constructor-sized capacity is exceeded (which the solver's exchange
// schedule never does).
func sized(buf []float64, need int) []float64 {
	if cap(buf) < need {
		return make([]float64, need)
	}
	return buf[:need]
}

// post packs width strips of b starting at strip `at` into one message
// to rank `to`.
func (h *rankHalo) post(a *axis, to int, t msg.Tag, b *flux.State, at, width int) {
	a.send = sized(a.send, flux.NVar*width*a.stripLen(b))
	o := 0
	for k := 0; k < flux.NVar; k++ {
		o += packStrip[a.d](b[k], at, width, a.send[o:])
	}
	a.count.AddMessage(8 * len(a.send))
	h.comm.Send(to, t, a.send)
}

// take receives width strips from rank `from` into b starting at strip
// `at`. Ghost and owned strips are both legal targets: the refresh
// overwrites owned shell strips.
func (h *rankHalo) take(a *axis, from int, t msg.Tag, b *flux.State, at, width int) {
	a.recv = sized(a.recv, flux.NVar*width*a.stripLen(b))
	a.count.Startups++
	h.comm.Recv(from, t, a.recv)
	o := 0
	for k := 0; k < flux.NVar; k++ {
		o += unpackStrip[a.d](b[k], at, width, a.recv[o:])
	}
}

// Start implements solver.Halo. With no redundant shell (ext == 0) the
// block's first two owned strips go to the left/down neighbour and its
// last two to the right/up one; under a Wide policy the neighbour's
// ghost slots sit just outside its own ext-wide shell, which is 2*ext
// strips into our rectangle (our shell plus theirs). Sends are eager,
// so all of them go out before any receive blocks.
func (h *rankHalo) Start(d solver.Dir, k solver.Kind, b *flux.State) {
	a, w := &h.ax[d], h.width(k)
	for p := 0; p < field.Halo; p += w {
		if a.lo >= 0 {
			h.post(a, a.lo, tag(k, p/w), b, 2*h.ext+p, w)
		}
		if a.hi >= 0 {
			h.post(a, a.hi, tag(k, p/w), b, a.n-field.Halo-2*h.ext+p, w)
		}
	}
}

// Finish implements solver.Halo: receive the neighbours' strips into
// the ghost strips of both interior sides.
func (h *rankHalo) Finish(d solver.Dir, k solver.Kind, b *flux.State) {
	a, w := &h.ax[d], h.width(k)
	for p := 0; p < field.Halo; p += w {
		if a.lo >= 0 {
			h.take(a, a.lo, tag(k, p/w), b, p-field.Halo, w)
		}
		if a.hi >= 0 {
			h.take(a, a.hi, tag(k, p/w), b, a.n+p, w)
		}
	}
}

// Skip implements solver.Halo: each interior neighbour's skipped
// send+receive pairs are booked as saved startups — the budget a Wide
// policy's redundant shell buys.
func (h *rankHalo) Skip(d solver.Dir, k solver.Kind) {
	a := &h.ax[d]
	saved := int64(2 * field.Halo / h.width(k))
	if a.lo >= 0 {
		a.count.SavedStartups += saved
	}
	if a.hi >= 0 {
		a.count.SavedStartups += saved
	}
}

// Refresh implements solver.Halo: re-exchange the ext-wide redundant
// shells of a Wide(k) policy, resetting their staleness before an
// exchange step. The left/down neighbour's shell covers our first ext
// core strips, [ext, 2ext), and its data for us lands in our shell
// strips [0, ext); symmetrically on the right/up side. Two ordered
// phases keep the shell corners of the 2-D decomposition correct: rows
// first at the full extended width, then columns at the full extended
// height — the column payload's corner rows are the just-refreshed
// down/up shell data, so a diagonal neighbour's contribution arrives
// relayed through the shared row neighbour, exactly as the per-stage
// corner fills do. Within each phase all sends go out before any
// receive blocks (the message layer buffers them), so the phase
// ordering cannot deadlock.
func (h *rankHalo) Refresh(b *flux.State) {
	e := h.ext
	if e == 0 {
		return
	}
	for _, d := range [...]solver.Dir{solver.Radial, solver.Axial} {
		a := &h.ax[d]
		if a.lo >= 0 {
			h.post(a, a.lo, refreshTag, b, e, e)
		}
		if a.hi >= 0 {
			h.post(a, a.hi, refreshTag, b, a.n-2*e, e)
		}
		if a.lo >= 0 {
			h.take(a, a.lo, refreshTag, b, 0, e)
		}
		if a.hi >= 0 {
			h.take(a, a.hi, refreshTag, b, a.n-e, e)
		}
	}
}
