package traffic

import (
	"math"
	"sort"
)

// Lowering is a source model lowered once, over a window grown to the
// longest one asked of it, from which Workspace.Lower reads
// Flatten(source, h) for any shorter window h, array for array, instead of
// lowering the source again. The zero value is empty; covers fills it.
//
// A source lowering is a sequence of builder steps (lowerSource), and the
// lowering over h runs exactly the steps whose gate — the shortest window at
// which the step runs — is at most h. The gates rise along the sequence, so
// that lowering is a prefix of the long one's steps, and its array is the
// long array's first m vertices (those whose gate is at most h) with one
// difference: the slope of its last vertex is the one that vertex was
// written with, which in the long array the next vertex may have settled
// (flatBuilder.add). The long lowering keeps that slope (raw) and the gate of
// each vertex beside its array.
//
// Two float events would break the prefix, and the lowering refuses every
// window past the first gate they touch (limit): a step whose gate lies below
// an earlier step's (a burst that ends an ulp past the next period's start),
// and a step rewriting a vertex that a step of a lower gate wrote. Neither
// occurs on the sources of the analysis; a refused window is lowered afresh.
// A long lowering that hit the segment cap serves only windows below its
// last vertices.
//
// A Lowering has a single owner (the analyzer's class record) and is not
// safe for concurrent use.
type Lowering struct {
	flat        *Flat
	gates, raw  []float64
	window, top float64
	limit       float64
}

// covers reports whether the lowering serves Flatten(src, horizon),
// lowering src afresh first when horizon lies past its window: over twice
// that window, or horizon when it is longer, so that a run of rising
// windows lowers the source a logarithmic number of times. src must be the
// source the lowering was filled from, if it was. It reports false when src
// is not a source model or horizon is at or past the limit.
func (l *Lowering) covers(src Descriptor, horizon float64) bool {
	if l.flat != nil && (horizon <= l.window || l.limit < l.window) { //lint:allow floatcmp exact window test: the window the long lowering was asked for
		return horizon < l.limit
	}
	window := horizon
	if l.flat != nil {
		window = max(horizon, 2*l.window)
	}
	l.gates, l.raw, l.top, l.limit = l.gates[:0], l.raw[:0], 0, math.Inf(1)
	b := flatBuilder{rec: l}
	if !lowerSource(&b, src, window) {
		l.flat = nil
		return false
	}
	if b.full() {
		// The cap cut the steps short: a window reaching the last vertices
		// might have run a step the long lowering did not.
		l.limit = min(l.limit, l.gates[maxFlatSegments-1])
	}
	if l.flat = b.finish(window, src); l.flat == nil {
		return false
	}
	l.window = window
	return horizon < l.limit
}

// step checks the gate of the next builder step against the steps before
// it: a lower gate ends the windows served at it.
func (l *Lowering) step(gate float64) {
	if gate < l.top {
		l.limit = min(l.limit, gate)
	}
	l.top = max(l.top, gate)
}

// rewrite records a step that rewrote the last vertex with slope s: a
// window between the gate that wrote it before and this step's holds the
// old vertex, so the lowering serves no window from the old gate on.
func (l *Lowering) rewrite(gate, s float64) {
	n := len(l.gates) - 1
	if gate > l.gates[n] {
		l.limit = min(l.limit, l.gates[n])
	}
	l.gates[n], l.raw[n] = gate, s
}

// prefix writes Flatten(source, horizon) into b's flat, for a horizon covers
// accepted: the vertices whose gate is at most horizon, the last with the
// slope it was written with.
func (l *Lowering) prefix(b *flatBuilder, horizon float64) *Flat {
	m := sort.Search(len(l.gates), func(i int) bool { return l.gates[i] > horizon })
	f := l.flat
	b.reserve(m)
	b.ts = append(b.ts, f.ts[:m]...)
	b.vs = append(b.vs, f.vs[:m]...)
	b.ss = append(b.ss, f.ss[:m-1]...)
	b.ss = append(b.ss, l.raw[m-1])
	return b.finish(horizon, f.tail)
}
