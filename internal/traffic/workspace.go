package traffic

import (
	"math"
	"slices"
	"sort"
)

// Workspace holds the arrays an analysis builds envelopes in that nothing
// keeps: the port aggregate summed from its members (Sum, Backlog), the
// vertices of the member views a port walk reads, the intermediate flats of
// a stage-0 lowering (Lower) and the receiver's quantized input (Quantize).
// A warmed workspace builds them without allocating. The zero value is ready
// to use.
//
// A Workspace has a single owner and is NOT safe for concurrent use: one
// lives on each core.Analyzer, which is itself single-threaded. What it
// returns is overwritten by the next call of the same method (Lower's result
// excepted, which is allocated): nothing that outlives the analysis may keep
// a reference to it.
type Workspace struct {
	// sum holds the two breakpoint arrays the fold merges between, and
	// sumTail the members sum Sum installs, by pointer, as the result's tail.
	sum     [2]Flat
	sumTail Aggregate
	// views holds the fold's operands: each member's arrays, whole or cut
	// one vertex past where a Backlog walk must end. zero is the all-zero
	// operand a single member is copied against.
	views []Flat
	zero  Flat
	// readers hold the vertices of the views read in this epoch, rused of
	// them (Forget ends an epoch); scratch holds Lower's intermediate flats,
	// used of them in use.
	readers []*reader
	rused   int
	epoch   uint64
	scratch []*Flat
	used    int
	// quantIn is Quantize's view of the vertices it reads, quant its result.
	quantIn, quant Flat
}

// linePad is the relative padding Backlog puts on the members' line
// σ + ρ·t, the one fddi.DelayBound puts on its own: a computed envelope
// value exceeds the exact one by float rounding and by the relative snapping
// of units.FloorDiv, and 1e-6 covers both a hundredfold. It decides only how
// far the members are summed, never a result.
const linePad = 1e-6

// Sum returns the exact sum of the given members: SumFlats' left fold
// through the same merge kernel, over the members' vertices — a view's as
// ShiftCap would write them, read into the workspace — so vertex for vertex
// and bit for bit the array SumFlats makes of the members' flats, built in
// two arrays the workspace keeps and allocation-free once they have grown.
// The tail is an Aggregate over the members themselves (not their chains),
// held by the workspace, so evaluations beyond the shared window go through
// the members' own fast paths.
//
// The members are only read, and the result is a copy even for one member —
// members are envelopes some cache hands out again, while the result is
// overwritten by the next Sum on this workspace and is valid only until then.
// Returns nil when no member, a nil one or a view past its window (no
// vertices to sum) is given.
func (w *Workspace) Sum(members []Envelope) *Flat {
	if !w.reserve(members) || !windowed(members) {
		return nil
	}
	w.cut(members, math.Inf(1))
	acc := w.fold()
	acc.tail = w.members(members)
	return acc
}

// members points the workspace's members sum at the given members.
func (w *Workspace) members(members []Envelope) *Aggregate {
	w.sumTail.members = w.sumTail.members[:0]
	for _, m := range members {
		w.sumTail.members = append(w.sumTail.members, m)
	}
	return &w.sumTail
}

// Backlog is traffic.Backlog(w.Sum(members), rateBps, fromHorizon,
// toHorizon), bit for bit, with the members summed only as far as the walk
// reads them.
//
// The members' padded line σ + ρ·t (their burst bounds and long-term rates,
// padded by linePad) ends the busy period by t* = σ/(rate − ρ): past it the
// sum lies under the service line. Each member is therefore cut one vertex
// past t* — a view read only that far — and the cut members are folded as
// Sum folds them. A segment of the result whose right end lies at or before
// the earliest cut vertex is Sum's bit for bit — settle rewrites a segment's
// slope only when the vertex that ends it lands, and every vertex up to there
// is merged from members' own segments — so a walk that ends inside that
// prefix is Sum's walk. When it does not (the crossing lies past it, a σ is
// +Inf, or the line does not fall), Backlog sums every member and walks the
// whole sum, doubling the window as traffic.Backlog does. A view past its
// window leaves no sum to walk: the members' sum is then lowered over the
// doubling windows from the start, as traffic.Backlog lowers any descriptor.
func (w *Workspace) Backlog(members []Envelope, rateBps, fromHorizon, toHorizon float64) (busy, backlog float64, ok bool) {
	if !w.reserve(members) {
		return 0, 0, false
	}
	if !windowed(members) {
		return Backlog(w.members(members), rateBps, fromHorizon, toHorizon)
	}
	if busy, backlog, ok = w.prefixBacklog(members, rateBps); ok {
		return busy, backlog, true
	}
	return Backlog(w.Sum(members), rateBps, fromHorizon, toHorizon)
}

// reserve sizes the fold's operands for the members. It reports false when
// there is nothing to sum: no member, or a nil one.
func (w *Workspace) reserve(members []Envelope) bool {
	if len(members) == 0 || slices.Contains(members, nil) {
		return false
	}
	if cap(w.views) < len(members) {
		w.views = make([]Flat, len(members))
	}
	w.views = w.views[:len(members)]
	if w.zero.ts == nil {
		w.zero = Flat{ts: []float64{0}, vs: []float64{0}, ss: []float64{0}, tail: zeroDesc{}}
	}
	return true
}

// windowed reports whether every member has vertices to sum: no view among
// them is past its window.
func windowed(members []Envelope) bool {
	for _, m := range members {
		if v, ok := m.(*View); ok && v.horizon <= 0 {
			return false
		}
	}
	return true
}

// prefixBacklog is Backlog's walk over the members cut past the line's end;
// ok is false when the walk did not end inside the prefix the cut leaves
// exact.
func (w *Workspace) prefixBacklog(members []Envelope, rateBps float64) (busy, backlog float64, ok bool) {
	var sigma, rho float64
	for _, m := range members {
		sigma += m.burstBound()
		rho += m.LongTermRate()
	}
	sigma, rho = sigma*(1+linePad), rho*(1+linePad)
	end := sigma / (rateBps - rho)
	if !(rho < rateBps) || math.IsInf(end, 0) || math.IsNaN(end) {
		return 0, 0, false
	}
	at := w.cut(members, end)
	sum := w.fold()
	return sum.excess(rateBps, sort.SearchFloat64s(sum.ts, at))
}

// cut sets the fold's operands to the members' vertices, each ending at its
// first vertex past stop (whole when that is its last vertex, or there is
// none) — a view's read into the workspace only that far — sizes both sum
// arrays for them, and returns the earliest vertex a member was cut at, +Inf
// when none was. That vertex is also the sum's, when it lies inside the
// sum's window.
func (w *Workspace) cut(members []Envelope, stop float64) (at float64) {
	at = math.Inf(1)
	total := 0
	for i, m := range members {
		switch e := m.(type) {
		case *Flat:
			n := len(e.ts)
			if j := sort.SearchFloat64s(e.ts, math.Nextafter(stop, math.Inf(1))); j+1 < n {
				n = j + 1
				at = min(at, e.ts[j])
			}
			w.views[i] = Flat{ts: e.ts[:n], vs: e.vs[:n], ss: e.ss[:n], horizon: e.horizon, rho: e.rho}
		case *View:
			r := w.reader(e)
			n, cut := r.through(stop)
			if cut {
				at = min(at, r.b.ts[n-1])
			}
			w.views[i] = Flat{ts: r.b.ts[:n], vs: r.b.vs[:n], ss: r.b.ss[:n], horizon: e.horizon, rho: e.rho}
		}
		total += len(w.views[i].ts)
	}
	w.sum[0].ensure(total)
	w.sum[1].ensure(total)
	return at
}

// reader returns the reader of v's vertices: the one this epoch handed out
// for v already, which has read some of them, or a new one from the
// workspace's pool, with a reader of each view upstream of it. A view's
// vertices never change, so a read resumes where the last one stopped.
func (w *Workspace) reader(v *View) *reader {
	if r := v.rd; r != nil && r.w == w && r.epoch == w.epoch && r.v == v {
		return r
	}
	if w.rused == len(w.readers) {
		w.readers = append(w.readers, new(reader))
	}
	r := w.readers[w.rused]
	w.rused++
	*r = reader{v: v, w: w, epoch: w.epoch, b: flatBuilder{ts: r.b.ts[:0], vs: r.b.vs[:0], ss: r.b.ss[:0]}}
	r.b.reserve(v.size)
	v.rd = r
	switch u := v.up.(type) {
	case *Flat:
		r.up = u
	case *View:
		r.upr = w.reader(u)
	}
	return r
}

// Forget ends the epoch of the views' vertices the workspace has read: a
// later read of any view reads it afresh, into a reader the pool hands out
// again. An analysis calls it between evaluations, which bounds the pool by
// the views one evaluation reads.
func (w *Workspace) Forget() {
	w.epoch++
	w.rused = 0
}

// scratchFlat returns the next of Lower's scratch flats.
func (w *Workspace) scratchFlat() *Flat {
	if w.used == len(w.scratch) {
		w.scratch = append(w.scratch, new(Flat))
	}
	f := w.scratch[w.used]
	w.used++
	return f
}

// Lower is Flatten(d, horizon), array for array, for a chain whose source
// leaf is src, the flat of a source model over a window shorter than some of
// the chain's stages read (the sender MAC's input, under its output's delay):
// where Flatten would lower src's tail afresh over a longer window, Lower
// reads long, the same source lowered once over a window grown to cover it
// (Lowering). Every flat of the chain but the result is built in the
// workspace's scratch, and is overwritten by the next Lower; the result is a
// new flat.
func (w *Workspace) Lower(d Descriptor, horizon float64, src *Flat, long *Lowering) *Flat {
	w.used = 0
	lw := lowerer{w: w, src: src, long: long}
	return lw.flatten(d, horizon, true)
}

// Quantize applies A'(I) = ⌈A(I)/quantumBits⌉·outBits to env's vertices in
// closed form — the frame/cell conversion of the interface devices; a view's
// vertices read into the workspace as ShiftCap would write them — and
// returns the result as a flat with the given tail chain, built in the
// workspace and valid until the next Quantize. It returns nil when a quantum
// is not positive, tail is nil, or env has no window.
func (w *Workspace) Quantize(env Envelope, quantumBits, outBits, horizon float64, tail Descriptor) *Flat {
	if quantumBits <= 0 || outBits <= 0 || tail == nil {
		return nil
	}
	var f *Flat
	switch e := env.(type) {
	case *Flat:
		f = e
	case *View:
		r := w.reader(e)
		n, _ := r.through(math.Inf(1))
		w.quantIn = Flat{ts: r.b.ts[:n], vs: r.b.vs[:n], ss: r.b.ss[:n], horizon: e.horizon, rho: e.rho}
		f = &w.quantIn
	default:
		return nil
	}
	b := flatBuilder{ts: w.quant.ts[:0], vs: w.quant.vs[:0], ss: w.quant.ss[:0], dst: &w.quant}
	return f.quantized(&b, quantumBits, outBits, horizon, tail)
}

// fold merges the operands left to right into the sum arrays — the
// association SumFlats takes, through the one merge kernel — and returns the
// result. A single operand is copied by a merge with the zero flat.
func (w *Workspace) fold() *Flat {
	acc := &w.views[0]
	if len(w.views) == 1 {
		w.zero.horizon = acc.horizon
		mergeLinear(&w.sum[0], acc, &w.zero)
		return &w.sum[0]
	}
	for i := 1; i < len(w.views); i++ {
		dst := &w.sum[(i-1)&1]
		mergeLinear(dst, acc, &w.views[i])
		acc = dst
	}
	return acc
}
