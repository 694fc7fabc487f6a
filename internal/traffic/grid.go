package traffic

import (
	"math"
	"sort"

	"fafnet/internal/units"
)

// GridNudge is the offset (seconds) used to probe an envelope "just after"
// or "just before" a burst instant or grid vertex. It is far below any
// physical time constant in the system; extremum searches across the
// analysis packages bracket candidate points with ±GridNudge.
const GridNudge = 1e-10

// maxGridExtras is the number of extra point lists the merge kernel takes
// as streams of their own.
const maxGridExtras = 4

// Grid assembles, in one pass and into a workspace buffer, the candidate
// evaluation points in (0, horizon] of an extremum search over d: ascending,
// deduplicated to units.Eps. The point set is
//
//   - the descriptor's intrinsic breakpoints in [0, horizon] (its
//     AppendBreakpoints enumeration), each bracketed by points GridNudge
//     before and after, so that step discontinuities are observed from both
//     sides — probing just after a vertex also covers a burst at 0, where the
//     envelope jumps but 0 itself is outside the grid;
//   - a uniform fallback grid of n points (at least 1), which bounds the
//     error for composite envelopes whose exact vertex set is impractical to
//     enumerate;
//   - the extras: further point lists the search wants visited (the avail
//     steps at multiples of TTRT, the t→0⁺ point), merged in afterwards.
//     There are at most maxGridExtras of them, each ascending: a
//     precondition, which every analysis meets by construction.
//
// "Afterwards" is part of the contract: the first two families are clipped
// and deduplicated among themselves before the extras are merged and the
// whole is deduplicated again — the formulation the analyses were written
// against, which the test oracle spells out as two merges. Both dedup stages
// ride along the single k-way merge of the uniform run, the three bracket
// streams of the sorted breakpoint list and the extras.
//
// The returned slice belongs to the caller until handed back with Put; it
// keeps one spare slot of capacity so InsertGridPoint never reallocates.
// The extras are only read. A nil d contributes no breakpoints.
func (w *Workspace) Grid(d Descriptor, horizon float64, n int, extras ...[]float64) []float64 {
	if horizon <= 0 {
		return nil
	}
	if n < 1 {
		n = 1
	}
	return w.grid(d, horizon, horizon, n, extras)
}

// GridPrefix returns the points of Grid(d, horizon, n, extras...) up to limit
// (at most horizon): the same points in the same order, assembled only that
// far. The merge behind Grid is streaming — each point is emitted, or dropped
// against the points already emitted, before any later one is looked at — so
// stopping it at limit leaves exactly the prefix of its full output. The
// extras need only list their points up to limit: the merge stops at the first
// point beyond it, so a longer list changes nothing. A search that ends early
// in its grid (the busy period of a FIFO port is a fraction of the horizon it
// is looked for in; Theorem 1's maxima lie where the line σ + ρ·t still
// reaches them) pays for the part it reads.
func (w *Workspace) GridPrefix(d Descriptor, horizon float64, n int, limit float64, extras ...[]float64) []float64 {
	if horizon <= 0 || limit <= 0 {
		return nil
	}
	if n < 1 {
		n = 1
	}
	return w.grid(d, horizon, min(limit, horizon), n, extras)
}

// grid is Grid stopped at limit <= horizon, with n >= 1. The uniform step
// stays horizon/n whatever the limit. Breakpoints are enumerated to
// limit + 2·GridNudge: a vertex w just past the limit still puts its
// w − GridNudge bracket inside, and the second nudge absorbs the rounding of
// the shifts inside the descriptors' own enumerations.
func (w *Workspace) grid(d Descriptor, horizon, limit float64, n int, extras [][]float64) []float64 {
	reach := min(horizon, limit+2*GridNudge)
	raw := w.bp[:0]
	w.bp = nil
	if d != nil {
		raw = AppendBreakpoints(raw, d, reach)
	}
	if !sort.Float64sAreSorted(raw) {
		sort.Float64s(raw)
	}
	// Points outside [0, reach] contribute nothing, not even the bracket
	// that would fall inside.
	lo := sort.SearchFloat64s(raw, 0)
	hi := lo + sort.Search(len(raw)-lo, func(i int) bool { return raw[lo+i] > reach })
	window := raw[lo:hi]

	bound := n + 3*len(window) + 1
	for _, e := range extras {
		bound += len(e)
	}
	out := w.Get(bound)[:bound]
	k := mergeGrid(out, horizon, limit, n, window, extras)
	w.bp = raw[:0]
	return out[:k]
}

// mergeGrid is the grid-assembly kernel: one k-way merge over the uniform run
// step·i (i = 1…n, n >= 1, step = horizon/n), the three bracket streams
// window[i] − GridNudge, window[i] and window[i] + GridNudge, and the extras,
// writing the Eps-deduplicated result clipped to (0, limit] into out (sized by
// the caller to hold every input point) and returning its length. window must
// be ascending and within [0, horizon]; adding a constant is monotone in
// floating point, so each bracket stream is ascending too. Points come out in
// ascending order and the dedup looks only backwards, so the output for a
// smaller limit is a prefix of the output for a larger one — provided window
// holds every vertex up to limit + GridNudge, whose brackets reach inside. The uniform run and the brackets are
// Grid's own point families: they pass a dedup stage of their own before
// joining the extras in the final one (see Grid). k is at most eight, so
// comparing heads beats heap bookkeeping.
//
//fafvet:hotpath
func mergeGrid(out []float64, horizon, limit float64, n int, window []float64, extras [][]float64) int {
	inf := math.Inf(1)

	// The three bracket streams, in locals: they carry nine points in ten.
	lo, mid, hi := inf, inf, inf // heads: window[iLo]−ν, window[iMid], window[iHi]+ν
	iLo, iMid, iHi := 0, 0, 0
	if len(window) > 0 {
		lo, mid, hi = window[0]-GridNudge, window[0], window[0]+GridNudge
	}

	// The other streams: stream 0 is the uniform run, 1… the extras. The
	// minimum over their heads is cached and rescanned only when one of them
	// was taken, so a step costs three or four comparisons, not k.
	var (
		src  [1 + maxGridExtras][]float64
		idx  [1 + maxGridExtras]int
		head [1 + maxGridExtras]float64
	)
	step := horizon / float64(n)
	idx[0], head[0] = 1, step
	streams := 1
	for _, e := range extras {
		src[streams] = e
		head[streams] = inf
		if len(e) > 0 {
			head[streams] = e[0]
		}
		streams++
	}
	rest, restHead := minHead(head[:streams])

	prevOwn, prev := -inf, -inf
	k := 0
	for {
		var p float64
		own := true // p is one of Grid's own families: uniform or bracket
		switch {
		case restHead < lo && restHead < mid && restHead < hi:
			p, own = restHead, rest == 0
			if idx[rest]++; rest == 0 {
				head[0] = inf
				if idx[0] <= n {
					head[0] = step * float64(idx[0])
				}
			} else if idx[rest] < len(src[rest]) {
				head[rest] = src[rest][idx[rest]]
			} else {
				head[rest] = inf
			}
			rest, restHead = minHead(head[:streams])
		case lo <= mid && lo <= hi:
			p, lo = lo, inf
			if iLo++; iLo < len(window) {
				lo = window[iLo] - GridNudge
			}
		case mid <= hi:
			p, mid = mid, inf
			if iMid++; iMid < len(window) {
				mid = window[iMid]
			}
		default:
			p, hi = hi, inf
			if iHi++; iHi < len(window) {
				hi = window[iHi] + GridNudge
			}
		}
		if p > limit {
			// Everything left is beyond the limit (or every stream is
			// exhausted and p is +Inf).
			return k
		}
		if p <= 0 {
			continue
		}
		if own {
			if p-prevOwn <= units.Eps {
				continue
			}
			prevOwn = p
		}
		if p-prev <= units.Eps {
			continue
		}
		prev = p
		out[k] = p
		k++
	}
}

// minHead returns the index and value of the smallest stream head.
func minHead(head []float64) (int, float64) {
	best := 0
	for s := 1; s < len(head); s++ {
		if head[s] < head[best] {
			best = s
		}
	}
	return best, head[best]
}

// InsertGridPoint merges the single point p into grid — an ascending,
// Eps-deduplicated run as Grid returns — under the same dedup rule, in
// place, and returns the result: the merge of grid and {p} clipped to grid's
// last point. The FIFO-port analysis uses it to add the t→0⁺ point to the prefix of the
// busy-period grid it goes on to scan.
func InsertGridPoint(grid []float64, p float64) []float64 {
	if p <= 0 || len(grid) == 0 || p > grid[len(grid)-1] {
		return grid
	}
	i := sort.SearchFloat64s(grid, p) // grid[i-1] < p <= grid[i]
	if i > 0 && p-grid[i-1] <= units.Eps {
		return grid
	}
	if grid[i]-p <= units.Eps {
		// p comes first in the merge and takes the slot of the point it
		// shadows.
		grid[i] = p
		return grid
	}
	grid = append(grid, 0)
	copy(grid[i+1:], grid[i:])
	grid[i] = p
	return grid
}

// BreakpointAppender is implemented by descriptors that can enumerate the
// interval lengths at which their envelope changes behaviour (burst arrivals,
// slope changes). Extremum searches in the server analyses are exact when the
// candidate grid contains these points. The descriptor appends them to a
// caller-owned buffer, so a transform chain enumerates into one slice instead
// of allocating one per link.
type BreakpointAppender interface {
	// AppendBreakpoints appends the interval lengths in (0, horizon] at which
	// the envelope has a vertex to dst and returns the extended slice. The
	// appended points need not be sorted or deduplicated, and only the
	// appended tail may be reordered or rewritten.
	AppendBreakpoints(dst []float64, horizon float64) []float64
}

// AppendBreakpoints appends d's breakpoints up to horizon to dst. Descriptors
// that advertise none append nothing.
func AppendBreakpoints(dst []float64, d Descriptor, horizon float64) []float64 {
	if v, ok := d.(BreakpointAppender); ok {
		return v.AppendBreakpoints(dst, horizon)
	}
	return dst
}
