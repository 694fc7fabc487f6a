package traffic

import (
	"math"
	"slices"
	"sort"
)

// Workspace holds the arrays the port aggregate of an analysis is summed in,
// so that a warmed workspace sums without allocating. The zero value is
// ready to use.
//
// A Workspace has a single owner and is NOT safe for concurrent use: one
// lives on each core.Analyzer, which is itself single-threaded. Its result
// is overwritten by the next Sum or Backlog: nothing that outlives the
// analysis may keep a reference to it.
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
}

// linePad is the relative padding Backlog puts on the members' line
// σ + ρ·t, the one fddi.DelayBound puts on its own: a computed envelope
// value exceeds the exact one by float rounding and by the relative snapping
// of units.FloorDiv, and 1e-6 covers both a hundredfold. It decides only how
// far the members are summed, never a result.
const linePad = 1e-6

// Sum returns the exact sum of the given flats: SumFlats' left fold through
// the same merge kernel, so vertex for vertex and bit for bit the same array,
// built in two arrays the workspace keeps and allocation-free once they have
// grown. The tail is an Aggregate over the flats themselves (not their
// chains), held by the workspace, so evaluations beyond the shared window go
// through the members' own fast paths.
//
// The flats are only read, and the result is a copy even for one member —
// members are arrays some cache hands out again, while the result is
// overwritten by the next Sum on this workspace and is valid only until then.
// Returns nil when no input or a nil input is given.
func (w *Workspace) Sum(flats []*Flat) *Flat {
	if !w.reserve(flats) {
		return nil
	}
	w.cut(flats, math.Inf(1))
	acc := w.fold()
	w.sumTail.members = w.sumTail.members[:0]
	for _, f := range flats {
		w.sumTail.members = append(w.sumTail.members, f)
	}
	acc.tail = &w.sumTail
	return acc
}

// Backlog is traffic.Backlog(w.Sum(flats), rateBps, fromHorizon, toHorizon),
// bit for bit, with the members summed only as far as the walk reads them.
//
// The members' padded line σ + ρ·t (their burst bounds and long-term rates,
// padded by linePad) ends the busy period by t* = σ/(rate − ρ): past it the
// sum lies under the service line. Each member is therefore cut one vertex
// past t* and the cut members are folded as Sum folds them. A segment of the
// result whose right end lies at or before the earliest cut vertex is Sum's
// bit for bit — settle rewrites a segment's slope only when the vertex that
// ends it lands, and every vertex up to there is merged from members' own
// segments — so a walk that ends inside that prefix is Sum's walk. When it
// does not (the crossing lies past it, a σ is +Inf, or the line does not
// fall), Backlog sums every member and walks the whole sum, doubling the
// window as traffic.Backlog does.
func (w *Workspace) Backlog(flats []*Flat, rateBps, fromHorizon, toHorizon float64) (busy, backlog float64, ok bool) {
	if !w.reserve(flats) {
		return 0, 0, false
	}
	if busy, backlog, ok = w.prefixBacklog(flats, rateBps); ok {
		return busy, backlog, true
	}
	return Backlog(w.Sum(flats), rateBps, fromHorizon, toHorizon)
}

// reserve sizes the fold's operands and both sum arrays for the whole sum
// of flats, so that the fold itself only writes by index. It reports false
// when there is nothing to sum: no flat, or a nil one.
func (w *Workspace) reserve(flats []*Flat) bool {
	if len(flats) == 0 || slices.Contains(flats, nil) {
		return false
	}
	if cap(w.views) < len(flats) {
		w.views = make([]Flat, len(flats))
	}
	w.views = w.views[:len(flats)]
	if w.zero.ts == nil {
		w.zero = Flat{ts: []float64{0}, vs: []float64{0}, ss: []float64{0}, tail: zeroDesc{}}
	}
	n := 0
	for _, f := range flats {
		n += f.Segments()
	}
	w.sum[0].ensure(n)
	w.sum[1].ensure(n)
	return true
}

// prefixBacklog is Backlog's walk over the members cut past the line's end;
// ok is false when the walk did not end inside the prefix the cut leaves
// exact.
func (w *Workspace) prefixBacklog(flats []*Flat, rateBps float64) (busy, backlog float64, ok bool) {
	var sigma, rho float64
	for _, f := range flats {
		sigma += f.burstBound()
		rho += f.rho
	}
	sigma, rho = sigma*(1+linePad), rho*(1+linePad)
	end := sigma / (rateBps - rho)
	if !(rho < rateBps) || math.IsInf(end, 0) || math.IsNaN(end) {
		return 0, 0, false
	}
	at := w.cut(flats, end)
	sum := w.fold()
	return sum.excess(rateBps, sort.SearchFloat64s(sum.ts, at))
}

// cut sets the fold's operands to the members' arrays, each ending at its
// first vertex past stop (whole when that is its last vertex, or there is
// none), and returns the earliest vertex a member was cut at, +Inf when none
// was. That vertex is also the sum's, when it lies inside the sum's window.
func (w *Workspace) cut(flats []*Flat, stop float64) (at float64) {
	at = math.Inf(1)
	for i, f := range flats {
		n := len(f.ts)
		if j := sort.SearchFloat64s(f.ts, math.Nextafter(stop, math.Inf(1))); j+1 < n {
			n = j + 1
			at = min(at, f.ts[j])
		}
		w.views[i] = Flat{ts: f.ts[:n], vs: f.vs[:n], ss: f.ss[:n], horizon: f.horizon, rho: f.rho}
	}
	return at
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
