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

// firstWindow is the reach of scanMAC's first pass, in rotations: avail is
// zero before the second multiple of TTRT, so a burst's wait — the early
// maximum of a busy interval — is decided inside it.
const firstWindow = 2

// scanMAC runs Theorem 1's two extremum scans over the busy interval and
// returns the worst-case backlog F (Eq. 10, NaN unless backlog is set), the
// worst-case delay χ (Eq. 11) and the number of envelope evaluations spent.
// The candidate grid is the input envelope's own vertices plus the avail
// steps at multiples of TTRT, each bracketed, plus the t→0⁺ point (a burst at
// the very start of the busy interval waits the full worst-case token
// latency). χ does not depend on whether the backlog scan ran: the two scans
// share only the memo of envelope values.
//
// The grid is assembled only as far as a maximum can still lie (DESIGN.md
// §7.2, rule 6). The padded line σ + ρ·t that DelayBound stands on bounds
// every candidate at t by a line falling in t, so no grid point at or past
// the stop — where those lines drop to the maxima found — can raise them, and
// the scans read none. The first pass assembles the grid over
// (0, min(B, 2·TTRT)] and scans as far as that prefix holds every point the
// scans read; when they need more, the second pass assembles the grid out to
// the stop, keeping the memo by index (a stopped merge is a prefix of the
// full grid), and the scans go on where they left off. The maxima only rise,
// so the stop only falls, and two passes are always enough. Without a line
// (a descriptor with no burst rule, or a padded rate the allocation cannot
// serve) the first pass assembles the whole busy interval.
//
// The scans read a point only by its index and the stop, never by the
// grid's length, so on the stopped grid they evaluate exactly the points they
// would on the full one: χ and F are the full grid's, bit for bit, and so is
// the count of evaluations.
//
// Grid, multiples and memo table live in workspace buffers for the duration
// of the call, so on a warmed workspace the scans allocate nothing. Points
// beyond the window of a lowered input evaluate through its exact tail chain:
// the scans evaluate the envelope at a few dozen points of the grid, far too
// few to pay for lowering it out to the busy interval first.
func scanMAC(ws *traffic.Workspace, in traffic.Descriptor, p MACParams, busy float64, gridPoints int, backlog bool) (backlogBits, delay float64, evals int) {
	s := newMACScan(in, p)
	limit := busy
	if s.hasLine {
		limit = min(busy, firstWindow*s.ttrt)
	}
	s.assemble(ws, busy, gridPoints, limit)
	if !s.run(backlog) {
		s.assemble(ws, busy, gridPoints, min(busy, s.reachNeeded(backlog)))
		s.run(backlog)
	}
	ws.Put(s.vals)
	ws.Put(s.grid)
	backlogBits = math.NaN()
	if backlog {
		backlogBits = s.backlog
	}
	return backlogBits, s.delay, s.evals
}

// macScan is the evaluation state of Theorem 1's extremum scans over one
// candidate grid: worst-case backlog F (Eq. 10) and worst-case delay χ
// (Eq. 11). The scans previously captured their memo tables in closures;
// they are methods on this struct instead so the whole scan phase sits
// under the hotpath analyzer — a function literal in an annotated region
// would itself be an allocation. scanMAC fills the struct from workspace
// buffers before the scans start, and refills it when a second pass extends
// the grid; the scans keep their progress across the passes.
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
//     already found is dropped without being split (see splits);
//   - A under the padded line σ + ρ·t bounds every candidate at t by a line
//     falling in t, so neither scan reads a point at or past the time where
//     its line meets its maximum (see delayStop and backlogStop).
type macScan struct {
	in        traffic.Descriptor
	p         MACParams
	svc, ttrt float64
	grid      []float64
	vals      []float64 // memo of A(grid[i]); NaN where not yet asked
	evals     int
	backlog   float64
	delay     float64

	// reach is the time up to which grid holds every point of the full grid:
	// the limit it was assembled to, +Inf once it is the full grid.
	reach float64

	// The padded line σ + ρ·t over the input, and the slopes at which the
	// lines over the delay and backlog candidates fall. hasLine is false when
	// σ is infinite or a line does not fall: then the stops are +Inf.
	hasLine           bool
	sigmaBits, rhoBps float64
	chiFall, fFallBps float64

	// Progress carried from the first pass into the second.
	nextRot     int  // first index of the next rotation the backlog scan folds
	below       int  // last index known to have A <= Eps; -1 before any
	lo          int  // first index with A > Eps, considered; -1 until found
	split       int  // last index the delay scan has covered, from lo on
	windowSplit bool // the delay scan has covered the first window
}

// newMACScan returns the scan state for in at p, before any grid. It reads
// the padded line σ + ρ·t off the input; the line stops the grid when σ is
// finite and both candidate lines fall — the padded rate strictly below what
// the allocation serves.
func newMACScan(in traffic.Descriptor, p MACParams) macScan {
	s := macScan{in: in, p: p, svc: p.RotationServiceBits(), ttrt: p.Ring.TTRT, below: -1, lo: -1}
	s.sigmaBits, s.rhoBps = paddedLine(in)
	s.chiFall = 1 - s.rhoBps*s.ttrt/s.svc
	s.fFallBps = s.svc/s.ttrt - s.rhoBps
	s.hasLine = !math.IsInf(s.sigmaBits, 0) && !math.IsNaN(s.sigmaBits) && s.chiFall > 0 && s.fFallBps > 0
	return s
}

// assemble takes the candidate grid over (0, limit] from the workspace in
// place of the one the scan holds (a prefix of it), and a memo table that
// keeps the values already evaluated at their indices. The TTRT multiples go
// one rotation past the limit, so the bracket below the next multiple is
// there; the merge stops at the limit, so the grid is the full grid's prefix
// point for point.
func (s *macScan) assemble(ws *traffic.Workspace, busy float64, gridPoints int, limit float64) {
	reach := min(busy, limit+s.ttrt)
	mult := appendMultiples(ws.Get(multiplesLen(s.ttrt, reach)), s.ttrt, reach)
	zeroPlus := [1]float64{traffic.GridNudge}
	ws.Put(s.grid) // the new grid starts with the same points
	s.grid = ws.GridPrefix(s.in, busy, gridPoints, limit, mult, zeroPlus[:])
	ws.Put(mult)
	mMACGridPoints.Add(uint64(len(s.grid)))
	s.reach = limit
	if limit >= busy {
		s.reach = math.Inf(1)
	}
	vals := ws.Get(len(s.grid))[:len(s.grid)]
	unevaluated := math.NaN()
	for i := copy(vals, s.vals); i < len(vals); i++ {
		vals[i] = unevaluated
	}
	ws.Put(s.vals)
	s.vals = vals
}

// run is one pass of scanMAC: the backlog scan when backlog is set, then the
// delay scan, each from where a previous pass left it. It reports whether both
// are done; false means one needs points past the grid's reach, which
// reachNeeded then names.
//
//fafvet:hotpath
func (s *macScan) run(backlog bool) bool {
	done := true
	if backlog {
		done = s.scanBacklog()
	}
	return s.scanDelay() && done
}

// reachNeeded returns the time the grid must reach for the scans to finish:
// the later of their stops.
func (s *macScan) reachNeeded(backlog bool) float64 {
	t := s.delayStop()
	if backlog {
		t = max(t, s.backlogStop())
	}
	return t
}

// delayStop returns the time at and past which no delay candidate exceeds the
// maximum found. With A(t) <= σ + ρ·t and m(t) < A(t)/svc + 2 (DelayBound),
// every candidate is below (σ/svc + 2)·TTRT − t·(1 − ρ·TTRT/svc). The
// intercept is padded by boundPad once more, which covers the rounding of the
// line itself and of the candidates a millionfold.
func (s *macScan) delayStop() float64 {
	if !s.hasLine {
		return math.Inf(1)
	}
	return ((s.sigmaBits/s.svc+2)*s.ttrt*(1+boundPad) - s.delay) / s.chiFall
}

// backlogStop is delayStop for the backlog: avail(t) >= (t/TTRT − 2)·svc, as
// ⌊t/TTRT⌋ > t/TTRT − 1, so every backlog candidate is below
// σ + 2·svc − t·(svc/TTRT − ρ).
func (s *macScan) backlogStop() float64 {
	if !s.hasLine {
		return math.Inf(1)
	}
	return ((s.sigmaBits+2*s.svc)*(1+boundPad) - s.backlog) / s.fFallBps
}

// cut returns the number of grid points below t, and whether they are all of
// the full grid's points below t: the grid reaches t. Hand-rolled rather than
// sort.Search: the callback closure would be an allocation inside the
// annotated scan.
func (s *macScan) cut(t float64) (int, bool) {
	if !(t <= s.reach) {
		return len(s.grid), false
	}
	lo, hi := 0, len(s.grid)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.grid[mid] >= t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, true
}

// eval returns A(grid[i]), memoized: the binary splitting of scanDelay
// revisits segment endpoints, and the backlog scan shares points with it.
func (s *macScan) eval(i int) float64 {
	if math.IsNaN(s.vals[i]) {
		s.evals++
		s.vals[i] = s.in.Bits(s.grid[i])
	}
	return s.vals[i]
}

// scanBacklog raises s.backlog to F = max over the grid of A(t) − avail(t)
// (Eq. 10), rotation by rotation from s.nextRot, evaluating A only at the
// last point of each constant-avail segment that lies before the backlog
// stop. It reports false when the next rotation may hold points before the
// stop that are past the grid's reach.
//
//fafvet:hotpath
func (s *macScan) scanBacklog() bool {
	for s.nextRot < len(s.grid) {
		end, reached := s.cut(s.backlogStop())
		i := s.nextRot
		if reached && i >= end {
			return true
		}
		j := s.lastBelow(i, math.Floor(s.grid[i]/s.ttrt)+1) // the rotation's last point
		k := j
		if reached {
			k = min(j, end-1)
		} else if j == len(s.grid)-1 {
			return false
		}
		if b := s.eval(k) - s.p.Avail(s.grid[k]); b > s.backlog {
			s.backlog = b
		}
		s.nextRot = j + 1
	}
	return true
}

// lastBelow returns the last grid index, from i on, whose floored rotation
// index ⌊t/TTRT⌋ is below rot; grid[i]'s must be. The grid is ascending and
// rounded division and Floor are both monotone, so those indices are
// contiguous and their end is found by galloping then bisecting on the same
// predicate a point-by-point walk would apply — a deep grid carries a dozen
// points per rotation. The comparison of the floored index is exact: grouping
// must follow Avail's own segmentation, ulps and all. On a prefix of the grid
// the answer is the full grid's whenever a later point of the prefix is at or
// past rot.
func (s *macScan) lastBelow(i int, rot float64) int {
	lo, step := i, 1 // below rot at lo
	for lo+step < len(s.grid) && !(math.Floor(s.grid[lo+step]/s.ttrt) >= rot) {
		lo += step
		step *= 2
	}
	hi := min(lo+step, len(s.grid)) // at or past rot at hi, or the end
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if math.Floor(s.grid[mid]/s.ttrt) >= rot {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo
}

// scanDelay raises s.delay to χ = max over the grid of m(t)·TTRT − t
// (Eq. 11), where m(t) = ⌈A(t)/svc⌉ + 1 is the first multiple of TTRT at
// which avail reaches A(t). Delay candidates exist only where A(t) > Eps, a
// suffix of the grid by monotonicity: the first of them is considered, then
// the runs after it are split in two stretches, each up to the delay stop —
// the first window (rotations 0 and 1, where the maximum usually lies), then
// the rest, under the stop the first stretch's maximum sets. It reports false
// when the search for the first candidate, or a stretch, needs points past
// the grid's reach; a second call goes on from there.
//
//fafvet:hotpath
func (s *macScan) scanDelay() bool {
	if s.lo < 0 {
		end, reached := s.cut(s.delayStop())
		lo, ok := s.firstPositive(end, reached)
		if !ok {
			return false
		}
		if lo >= end {
			return true // no candidate before the stop: none exceeds 0
		}
		s.lo, s.split = lo, lo
		s.consider(lo)
	}
	if !s.windowSplit {
		if math.Floor(s.grid[s.split]/s.ttrt) < firstWindow {
			end, reached := s.cut(s.delayStop())
			j := s.lastBelow(s.split, firstWindow)
			if reached {
				j = min(j, end-1)
			} else if j == len(s.grid)-1 {
				return false
			}
			if j > s.split {
				s.splits(s.split, j)
				s.split = j
			}
		}
		s.windowSplit = true
	}
	end, reached := s.cut(s.delayStop())
	if !reached {
		return false
	}
	if end-1 > s.split {
		s.splits(s.split, end-1)
	}
	return true
}

// firstPositive returns the first index below end with A > Eps, or end when
// there is none; end counts the grid points before the delay stop, and
// reached says whether the grid holds all of them. It gallops from the last
// index known not to be positive — probing 0, 1, 3, 7, …, capped at end − 1 —
// and bisects the last gap, so its probes depend on end and never on the
// grid's length. ok is false when the next probe lies past a grid that does
// not reach end; s.below keeps the search's progress for the next call.
func (s *macScan) firstPositive(end int, reached bool) (lo int, ok bool) {
	for {
		probe := max(0, 2*s.below+1)
		if reached {
			probe = min(probe, end-1)
		} else if probe >= len(s.grid) {
			return 0, false
		}
		if probe <= s.below {
			return end, true
		}
		if !(s.eval(probe) > units.Eps) {
			s.below = probe
			continue
		}
		lo, hi := s.below+1, probe
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if s.eval(mid) > units.Eps {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo, true
	}
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
