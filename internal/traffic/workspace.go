package traffic

import "slices"

// Workspace holds the arrays the port aggregate of an analysis is summed in,
// so that a warmed workspace sums without allocating. The zero value is
// ready to use.
//
// A Workspace has a single owner and is NOT safe for concurrent use: one
// lives on each core.Analyzer, which is itself single-threaded. Its result
// is overwritten by the next Sum: nothing that outlives the analysis may keep
// a reference to it.
type Workspace struct {
	// sum holds the two breakpoint arrays Sum folds between, and sumTail the
	// members sum it installs, by pointer, as the result's tail.
	sum     [2]Flat
	sumTail Aggregate
}

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
