package traffic

import (
	"math"
	"sort"

	"fafnet/internal/units"
)

// This file holds the multi-pass grid assembly the analyses were written
// against — about ten passes and eight slices per scan. Workspace.Grid
// replaced it at run time; it stays here, unchanged, as the oracle of the
// differential and fuzz tests, and CleanGrid stays as the normalization the
// older tests compare breakpoint sets under.

// oracleGrid is the seed formulation of grid assembly, kept verbatim as the
// reference the one-pass builder (Workspace.Grid) is tested against. It
// returns a sorted, deduplicated slice of candidate evaluation points in
// (0, horizon] for extremum searches involving d. The grid combines:
//
//   - the descriptor's intrinsic breakpoints (when it provides them), each
//     bracketed by points just before and just after, so that step
//     discontinuities are observed from both sides, and
//   - a uniform fallback grid of n points, which bounds the error for
//     composite envelopes whose exact vertex set is impractical to enumerate.
//
// n must be at least 1.
//
// The two point families are built as separate ascending runs and merged
// linearly; breakpoint providers that already emit ascending points (sources,
// delay-shifted chains, Flat caches) therefore never pay a comparison
// sort here — grid assembly is the inner loop of every server analysis.
func oracleGrid(d Descriptor, horizon float64, n int) []float64 {
	if horizon <= 0 {
		return nil
	}
	if n < 1 {
		n = 1
	}
	uniform := make([]float64, 0, n)
	step := horizon / float64(n)
	for i := 1; i <= n; i++ {
		uniform = append(uniform, step*float64(i))
	}
	var brackets []float64
	if raw := AppendBreakpoints(nil, d, horizon); len(raw) > 0 {
		if !sort.Float64sAreSorted(raw) {
			// Sorting the raw points (n elements) keeps the bracket
			// expansion below ascending, so the 3n-element slice rarely
			// needs the comparison sort of its own.
			raw = append([]float64(nil), raw...)
			sort.Float64s(raw)
		}
		brackets = make([]float64, 0, 3*len(raw))
		for _, b := range raw {
			if b < 0 || b > horizon {
				continue
			}
			if b > GridNudge {
				brackets = append(brackets, b-GridNudge)
			}
			if b > 0 {
				brackets = append(brackets, b)
			}
			if b+GridNudge <= horizon {
				// Probing just after a vertex also covers a burst at b=0,
				// where the envelope jumps but 0 itself is outside the grid.
				brackets = append(brackets, b+GridNudge)
			}
		}
	}
	if len(brackets) == 0 {
		return cleanSorted(uniform, horizon)
	}
	if !sort.Float64sAreSorted(brackets) {
		sort.Float64s(brackets)
	}
	merged := mergeSortedInto(make([]float64, 0, len(uniform)+len(brackets)), uniform, brackets)
	return cleanSorted(merged, horizon)
}

// oracleMergeGrids is the seed formulation of the bare-list merge behind
// Workspace.Grid's extras, kept verbatim as the reference. It combines several candidate grids into one sorted, deduplicated
// grid clipped to (0, horizon]. Input grids are not mutated; already-sorted
// inputs (the common case: Grid outputs, multiples of a step) are combined
// by a single-allocation k-way merge instead of re-sorted.
func oracleMergeGrids(horizon float64, grids ...[]float64) []float64 {
	var total int
	live := make([][]float64, 0, len(grids))
	for _, g := range grids {
		if len(g) == 0 {
			continue
		}
		if !sort.Float64sAreSorted(g) {
			gs := append([]float64(nil), g...)
			sort.Float64s(gs)
			g = gs
		}
		total += len(g)
		live = append(live, g)
	}
	merged := make([]float64, 0, total)
	switch len(live) {
	case 0:
	case 1:
		merged = append(merged, live[0]...)
	case 2:
		merged = mergeSortedInto(merged, live[0], live[1])
	default:
		// k is tiny (3–4 in every caller): a linear scan over the heads
		// beats heap bookkeeping and allocates nothing.
		idx := make([]int, len(live))
		for len(live) > 0 {
			best := 0
			for k := 1; k < len(live); k++ {
				if live[k][idx[k]] < live[best][idx[best]] {
					best = k
				}
			}
			merged = append(merged, live[best][idx[best]])
			idx[best]++
			if idx[best] == len(live[best]) {
				live = append(live[:best], live[best+1:]...)
				idx = append(idx[:best], idx[best+1:]...)
			}
		}
	}
	return cleanSorted(merged, horizon)
}

// CleanGrid sorts pts (in place, skipped when already ascending), removes
// duplicates (up to units.Eps) and values outside (0, horizon], and returns
// the result.
func CleanGrid(pts []float64, horizon float64) []float64 {
	if !sort.Float64sAreSorted(pts) {
		sort.Float64s(pts)
	}
	return cleanSorted(pts, horizon)
}

// cleanSorted is CleanGrid's dedup/clip pass over already-ascending points;
// it reuses the input's backing array.
func cleanSorted(pts []float64, horizon float64) []float64 {
	out := pts[:0]
	prev := math.Inf(-1)
	for _, p := range pts {
		if p <= 0 || p > horizon {
			continue
		}
		if p-prev <= units.Eps {
			continue
		}
		out = append(out, p)
		prev = p
	}
	return out
}

// mergeSortedInto appends the merge of two ascending runs onto dst.
func mergeSortedInto(dst, a, b []float64) []float64 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}
