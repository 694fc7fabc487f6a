package traffic

import (
	"math/bits"
	"slices"
)

// Workspace is a free list of []float64 scratch buffers, by power-of-two
// size class, for the per-analysis working set of the server analyses:
// candidate grids, breakpoint lists, TTRT multiples and scan memo tables are
// taken from it and handed back, so an analysis on a warmed workspace
// allocates nothing for them. The zero value is ready to use.
//
// A Workspace has a single owner and is NOT safe for concurrent use: one
// lives on each core.Analyzer, which is itself single-threaded, and reaches
// the analyses through fddi.Options and atm.MuxOptions. An analysis handed a
// nil workspace runs the same code on a fresh one.
//
// Ownership rule: a buffer obtained from Get (or a grid from Grid) belongs to
// the caller until it is Put back, and nothing that outlives the analysis may
// keep a reference to it — results that a cache will hand out again are
// copied into memory of their own.
type Workspace struct {
	free [wsClasses][wsSlots][]float64
	n    [wsClasses]uint8

	// bp is the growable breakpoint scratch of grid assembly. Enumeration
	// appends an unknown number of points, so it cannot be sized up front
	// like the class buffers; keeping the one buffer means it grows to the
	// deepest horizon seen and then stays.
	bp []float64

	// sum holds the two breakpoint arrays Sum folds between, and sumTail the
	// members sum it installs, by pointer, as the result's tail.
	sum     [2]Flat
	sumTail Aggregate
}

const (
	// wsMinShift is the smallest size class: 64 floats.
	wsMinShift = 6
	// wsClasses size classes cover 64 … 2M floats; a larger request is served
	// by a plain allocation and dropped on Put.
	wsClasses = 16
	// wsSlots is the free-list depth per class. An analysis holds at most
	// three buffers of one class at a time: multiples, grid and memo table,
	// or, in the second pass of a MAC scan, the first pass's memo table (its
	// grid is handed back first) beside the multiples and the longer grid,
	// then beside the longer grid and memo table.
	wsSlots = 4
)

// wsClass returns the size class whose capacity 1<<(class+wsMinShift) holds
// n floats.
func wsClass(n int) int {
	if n <= 1<<wsMinShift {
		return 0
	}
	return bits.Len(uint(n-1)) - wsMinShift
}

// Get returns an empty buffer with capacity for at least n floats.
//
//fafvet:hotpath
func (w *Workspace) Get(n int) []float64 {
	c := wsClass(n)
	if c >= wsClasses {
		return make([]float64, 0, n) //lint:allow hotpath beyond the largest size class (2M floats): no analysis within the busy-interval bounds asks for one
	}
	if k := w.n[c]; k > 0 {
		w.n[c] = k - 1
		b := w.free[c][k-1]
		w.free[c][k-1] = nil
		return b
	}
	return make([]float64, 0, 1<<(c+wsMinShift)) //lint:allow hotpath free-list miss: taken until the workspace has seen the analysis once, never on a warmed one (AllocsPerRun gates in traffic, fddi and atm)
}

// Put hands a buffer back. The buffer must not be used afterwards. Buffers
// that did not come from Get are accepted and filed under the largest class
// their capacity fills; when a class's slots are taken the buffer is left to
// the collector.
//
//fafvet:hotpath
func (w *Workspace) Put(b []float64) {
	if cap(b) < 1<<wsMinShift {
		return
	}
	c := bits.Len(uint(cap(b))) - 1 - wsMinShift
	if c >= wsClasses {
		return
	}
	if k := w.n[c]; k < wsSlots {
		w.free[c][k] = b[:0]
		w.n[c] = k + 1
	}
}

// Sum returns the exact sum of the given flats: SumFlats' left fold through
// the same merge kernel, so vertex for vertex and bit for bit the same array,
// built in two arrays the workspace keeps and allocation-free once they have
// grown. The tail is an Aggregate over the flats themselves (not their
// chains), held by the workspace, so evaluations beyond the shared window and
// breakpoint unions go through the members' own fast paths and caches.
//
// The flats are only read, and the result is a copy even for one member —
// members are arrays some cache hands out again, while the result is
// overwritten by the next Sum on this workspace and is valid only until then.
// Returns nil when no input or a nil input is given.
func (w *Workspace) Sum(flats []*Flat) *Flat {
	if len(flats) == 0 || slices.Contains(flats, nil) {
		return nil
	}
	w.sumTail.members = w.sumTail.members[:0]
	for _, f := range flats {
		w.sumTail.members = append(w.sumTail.members, f)
	}
	acc := flats[0]
	if len(flats) == 1 {
		dst := &w.sum[0]
		dst.ensure(acc.Segments())
		mergeLinear(dst, acc, acc.zero())
		acc = dst
	}
	for i, f := range flats[1:] {
		dst := &w.sum[i&1]
		dst.ensure(acc.Segments() + f.Segments())
		mergeLinear(dst, acc, f)
		acc = dst
	}
	acc.tail = &w.sumTail
	return acc
}
