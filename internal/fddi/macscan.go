package fddi

import (
	"math"

	"fafnet/internal/traffic"
	"fafnet/internal/units"
)

// busyInterval runs the Eq. 9 rotation scan: avail is constant between
// multiples of TTRT and A is nondecreasing, so the condition
// A(t) <= avail(t) first becomes true at a multiple of TTRT. Monotonicity
// also licenses skipping ahead: after observing a = A(k·TTRT), no k' with
// (k'−1)·svc + Eps < a can be the crossing (its demand is at least a), so
// the next candidate is the first rotation whose service catches up with
// the demand already seen. The jump target uses Floor (undershooting by at
// most one rotation) rather than Ceil so float rounding can never overshoot
// a true crossing; the result is identical to the rotation-by-rotation
// scan. ok is false when no crossing exists within maxRot rotations; the
// caller owns the error formatting, keeping this scan on the annotated
// hot path. evals reports the number of envelope evaluations performed —
// returned by value rather than accumulated through a pointer so the
// caller's counter is not forced onto the heap.
//
//fafvet:hotpath
func busyInterval(in traffic.Descriptor, svc, ttrt float64, maxRot int) (busy float64, evals int, ok bool) {
	for k := 1; ; {
		if k > maxRot {
			return 0, evals, false
		}
		t := float64(k) * ttrt
		evals++
		a := in.Bits(t)
		if a <= float64(k-1)*svc+units.Eps {
			return t, evals, true
		}
		if next := 1 + int(math.Floor((a-units.Eps)/svc)); next > k {
			k = next
		} else {
			k++
		}
	}
}

// scanMAC runs Theorem 1's two extremum scans over the busy interval: it
// assembles the candidate grid — the input envelope's own vertices plus the
// avail steps at multiples of TTRT, each bracketed, plus the t→0⁺ point (a
// burst at the very start of the busy interval waits the full worst-case
// token latency) — and returns the worst-case backlog F (Eq. 10, NaN unless
// backlog is set), the worst-case delay χ (Eq. 11) and the number of envelope
// evaluations spent. χ does not depend on whether the backlog scan ran: the
// two scans share only the memo of envelope values.
// Grid, multiples and memo table live in workspace buffers for the duration
// of the call, so on a warmed workspace the scans allocate nothing. Points
// beyond the window of a lowered input evaluate through its exact tail chain:
// the scans visit a few hundred of the grid's points, far too few to pay for
// lowering the envelope out to the busy interval first.
func scanMAC(ws *traffic.Workspace, in traffic.Descriptor, p MACParams, busy float64, gridPoints int, backlog bool) (backlogBits, delay float64, evals int) {
	ttrt := p.Ring.TTRT
	mult := appendMultiples(ws.Get(multiplesLen(ttrt, busy)), ttrt, busy)
	zeroPlus := [1]float64{traffic.GridNudge}
	grid := ws.Grid(in, busy, gridPoints, mult, zeroPlus[:])
	ws.Put(mult)
	vals := ws.Get(len(grid))[:len(grid)]
	unevaluated := math.NaN()
	for i := range vals {
		vals[i] = unevaluated
	}
	scan := macScan{in: in, p: p, svc: p.ServiceBitsPerRotation(), ttrt: ttrt, grid: grid, vals: vals}
	backlogBits = math.NaN()
	if backlog {
		backlogBits = scan.maxBacklog()
	}
	delay = scan.maxDelay()
	ws.Put(vals)
	ws.Put(grid)
	return backlogBits, delay, scan.evals
}

// macScan is the evaluation state of Theorem 1's extremum scans over one
// candidate grid: worst-case backlog F (Eq. 10) and worst-case delay χ
// (Eq. 11). The scans previously captured their memo tables in closures;
// they are methods on this struct instead so the whole scan phase sits
// under the hotpath analyzer — a function literal in an annotated region
// would itself be an allocation. scanMAC fills the struct from workspace
// buffers before the scans start.
//
// A is nondecreasing (the Descriptor contract), which licenses taking both
// maxima over far fewer than all grid points — with results identical to
// the full scan:
//
//   - avail(t) is constant wherever ⌊t/TTRT⌋ is, so over each maximal
//     segment of grid points sharing that value the backlog candidate
//     A(t) − avail(t) is maximized at the segment's last point;
//   - m(t) is a nondecreasing step function, so the delay candidate
//     m·TTRT − t is maximized at the first point of each m-run, and the
//     run boundaries are found by binary splitting, evaluating A at
//     O(runs·log |grid|) points instead of all of them;
//   - m nondecreasing and t increasing also bound every candidate of an index
//     range from its two ends, so a range that cannot beat the maximum
//     already found is dropped without being split (see splits).
type macScan struct {
	in        traffic.Descriptor
	p         MACParams
	svc, ttrt float64
	grid      []float64
	vals      []float64 // memo of A(grid[i]); NaN where not yet asked
	evals     int
	delay     float64
}

// eval returns A(grid[i]), memoized: the binary splitting of maxDelay
// revisits segment endpoints, and the backlog scan shares points with it.
func (s *macScan) eval(i int) float64 {
	if math.IsNaN(s.vals[i]) {
		s.evals++
		s.vals[i] = s.in.Bits(s.grid[i])
	}
	return s.vals[i]
}

// maxBacklog returns F = max over the grid of A(t) − avail(t) (Eq. 10),
// evaluating A only at the last point of each constant-avail segment.
//
//fafvet:hotpath
func (s *macScan) maxBacklog() float64 {
	var backlog float64
	for i := 0; i < len(s.grid); {
		j := s.lastOfRotation(i)
		if b := s.eval(j) - s.p.Avail(s.grid[j]); b > backlog {
			backlog = b
		}
		i = j + 1
	}
	return backlog
}

// lastOfRotation returns the last grid index whose floored rotation index
// ⌊t/TTRT⌋ equals grid[i]'s. The grid is ascending and rounded division and
// Floor are both monotone, so the indices sharing a value are contiguous and
// the end of the run is found by galloping then bisecting on the same
// predicate a point-by-point walk would apply — a deep grid carries a dozen
// points per rotation. The comparison of the floored index is exact: grouping
// must follow Avail's own segmentation, ulps and all.
func (s *macScan) lastOfRotation(i int) int {
	k := math.Floor(s.grid[i] / s.ttrt)
	lo, step := i, 1 // same rotation at lo
	for lo+step < len(s.grid) && !(math.Floor(s.grid[lo+step]/s.ttrt) > k) {
		lo += step
		step *= 2
	}
	hi := min(lo+step, len(s.grid)) // a later rotation at hi, or the end
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if math.Floor(s.grid[mid]/s.ttrt) > k {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo
}

// maxDelay returns χ = max over the grid of m(t)·TTRT − t (Eq. 11), where
// m(t) = ⌈A(t)/svc⌉ + 1 is the first multiple of TTRT at which avail
// reaches A(t). Delay candidates exist only where A(t) > Eps, a suffix of
// the grid by monotonicity.
//
//fafvet:hotpath
func (s *macScan) maxDelay() float64 {
	lo := s.firstPositive()
	if lo >= len(s.grid) {
		return 0
	}
	s.delay = 0
	s.consider(lo)
	s.splits(lo, len(s.grid)-1)
	return s.delay
}

// firstPositive binary-searches for the first grid index with A > Eps.
// Hand-rolled rather than sort.Search: the callback closure would be an
// allocation inside the annotated scan.
func (s *macScan) firstPositive() int {
	lo, hi := 0, len(s.grid)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.eval(mid) > units.Eps {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// mAt returns m(grid[i]).
func (s *macScan) mAt(i int) float64 { return units.CeilDiv(s.eval(i), s.svc) + 1 }

// consider folds grid index i's delay candidate into the running maximum.
func (s *macScan) consider(i int) {
	if d := s.mAt(i)*s.ttrt - s.grid[i]; d > s.delay {
		s.delay = d
	}
}

// splits finds every m-run boundary in (i, j] that can raise the running
// maximum, by binary splitting, and considers the first point of each such
// run. i itself has been considered by the caller.
//
// m is nondecreasing and the grid increasing, so every candidate in (i, j] is
// at most m(j)·TTRT − grid[i+1]; rounded multiplication and subtraction are
// monotone, so that holds for the computed values exactly as for the real
// ones, and a range whose bound does not exceed the running maximum holds
// nothing that would change it. The left-first order finds the early maximum
// (a burst at the start of the busy interval waits longest) before the long
// tail of a deep grid is reached, which is then dropped range by range
// instead of being bisected down to every run.
func (s *macScan) splits(i, j int) {
	mj := s.mAt(j)
	// m is an exact small integer; a run boundary is where it changes at
	// all, so exact equality is the right test.
	if s.mAt(i) == mj {
		return
	}
	if !(mj*s.ttrt-s.grid[i+1] > s.delay) {
		return
	}
	if j == i+1 {
		s.consider(j)
		return
	}
	mid := (i + j) / 2
	s.splits(i, mid)
	s.splits(mid, j)
}
