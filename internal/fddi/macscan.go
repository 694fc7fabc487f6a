package fddi

import (
	"math"

	"fafnet/internal/traffic"
	"fafnet/internal/units"
)

// nextRotation is one step of the Eq. 9 scan at rotation k, given
// a = A(k·TTRT): 0 when the busy interval ends there, A(k·TTRT) <= (k−1)·svc
// — bits against bits, with no tolerance to lengthen or shorten it — and
// otherwise the next rotation that can end it. Monotonicity licenses
// skipping ahead: no k' with (k'−1)·svc < a can be the crossing (its demand
// is at least a), so the next candidate is the first rotation whose service
// catches up with the demand already seen. The jump target uses Floor
// (undershooting by at most one rotation) rather than Ceil so float rounding
// can never overshoot a true crossing; the scan ends where the
// rotation-by-rotation scan does. The scan's first rotation (firstRotation)
// is the same argument made once, from the rate floor instead of a
// demand seen.
func nextRotation(k int, a, svc float64) int {
	if a <= float64(k-1)*svc {
		return 0
	}
	if next := 1 + int(math.Floor(a/svc)); next > k {
		return next
	}
	return k + 1
}

// scan reads Theorem 1's two suprema over the busy interval (0, B] off the
// input envelope: the worst-case delay χ (Eq. 11) into s.delay, and, when
// backlog is set, the worst-case backlog F (Eq. 10), which it returns (NaN
// otherwise). Neither is a maximum over sampled points: χ is taken by levels
// (scanDelay) and F by rotations (scanBacklog), each an upper bound of its
// supremum in the envelope's own arithmetic. The two share nothing, so χ
// does not depend on whether F was asked for.
//
// A under the padded line σ + ρ·t bounds every candidate at t by a line
// falling in t, so neither search reads past the time where its line meets
// the maximum found (DESIGN.md §7.2, rule 2; delayStop and backlogStop).
// The scan holds no buffer: on a flat input it allocates nothing.
func (s *macScan) scan(backlog bool) (backlogBits float64) {
	backlogBits = math.NaN()
	if backlog {
		s.scanBacklog()
		backlogBits = s.backlog
	}
	s.scanDelay()
	return backlogBits
}

// macScan is the state of Theorem 1's two searches over one busy interval.
//
// The interval's end B is found by the one Eq. 9 scan: with nextRot > 0 it
// stands at that rotation, every rotation before it known not to end the
// interval — from the start, every rotation below the rate floor's
// (firstRotation). It runs to the end before the searches start (finish), or
// advances only as far as a comparison of the delay search needs (before,
// clip). busy is B once known, NaN before.
type macScan struct {
	in            traffic.Descriptor
	flat          *traffic.Flat // in, when it is a flat: its levels are read off the segments
	p             MACParams
	svcBits, ttrt float64
	busy          float64
	nextRot       int
	evals         int
	backlog       float64
	delay         float64

	// The padded line σ + ρ·t over the input, and the slopes at which the
	// lines over the delay and backlog candidates fall. hasLine is false when
	// σ is infinite or a line does not fall: then the stops are +Inf.
	hasLine           bool
	sigmaBits, rhoBps float64
	chiFall, fFallBps float64
}

// newMACScan returns the search state for in at p, its Eq. 9 scan at the
// first rotation that can end the busy interval (firstRotation) and its
// busy interval not yet known. It reads the padded line σ + ρ·t off the
// input; the line stops the searches when σ is finite and both candidate
// lines fall — the padded rate strictly below what the allocation serves.
func newMACScan(in traffic.Descriptor, p MACParams) macScan {
	s := macScan{in: in, p: p, svcBits: p.RotationServiceBits(), ttrt: p.Ring.TTRT, busy: math.NaN()}
	s.nextRot = firstRotation(in, s.svcBits, s.ttrt)
	s.flat, _ = in.(*traffic.Flat)
	s.sigmaBits, s.rhoBps = paddedLine(in)
	s.chiFall = 1 - s.rhoBps*s.ttrt/s.svcBits
	s.fFallBps = s.svcBits/s.ttrt - s.rhoBps
	s.hasLine = !math.IsInf(s.sigmaBits, 0) && !math.IsNaN(s.sigmaBits) && s.chiFall > 0 && s.fFallBps > 0
	return s
}

// firstRotation returns the first rotation the Eq. 9 scan need visit, k₀,
// or maxBusyRotations + 1 when none up to maxBusyRotations can end the busy
// interval. Under the rate floor ρ (traffic.RateFloor), padded down by
// boundPad, the end test A(k·TTRT) <= (k−1)·svc cannot hold while
// ρ·k·TTRT > (k−1)·svc, that is below k = svc/(svc − ρ·TTRT):
//
//	k₀ = ⌈svc/(svc − ρ·TTRT)⌉ − 1,
//
// one rotation short of the quotient's ceiling, so that at every rotation
// skipped the floor clears the service by at least the margin
// svc − ρ·TTRT, far above the rounding of either side. At or above the
// service rate the test never holds. Without a floor the scan starts at
// rotation 1. A floor set too high could only start the scan past the true
// end and lengthen B — a looser bound, never an unsound one (DESIGN.md
// §7.2, rule 11).
func firstRotation(in traffic.Descriptor, svc, ttrt float64) int {
	rho, ok := traffic.RateFloor(in)
	if !ok {
		return 1
	}
	margin := svc - rho*(1-boundPad)*ttrt
	if margin <= 0 {
		return maxBusyRotations + 1
	}
	k := math.Ceil(svc/margin) - 1
	switch {
	case k > maxBusyRotations:
		return maxBusyRotations + 1
	case k > 1:
		return int(k)
	}
	return 1
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
	return ((s.sigmaBits/s.svcBits+2)*s.ttrt*(1+boundPad) - s.delay) / s.chiFall
}

// backlogStop is delayStop for the backlog: avail(t) >= (t/TTRT − 2)·svc, as
// ⌊t/TTRT⌋ > t/TTRT − 1, so every backlog candidate is below
// σ + 2·svc − t·(svc/TTRT − ρ).
func (s *macScan) backlogStop() float64 {
	if !s.hasLine {
		return math.Inf(1)
	}
	return ((s.sigmaBits+2*s.svcBits)*(1+boundPad) - s.backlog) / s.fFallBps
}

// bits returns A(t), counted.
func (s *macScan) bits(t float64) float64 {
	s.evals++
	return s.in.Bits(t)
}

// converges reports that the closed-form bound proves the busy interval
// ends within maxBusyRotations (closedFormBound): finish would find its end,
// so a scan that reads B only where the delay search compares against it
// cannot miss an ErrNoConvergence that finish reports.
func (s *macScan) converges() bool {
	_, ok := closedFormBound(s.sigmaBits, s.rhoBps, s.svcBits, s.ttrt)
	return ok
}

// before reports x < B. The lazy scan advances until its next rotation lies
// past x: B is at or past that rotation, or found on the way.
func (s *macScan) before(x float64) bool {
	for s.nextRot > 0 && float64(s.nextRot)*s.ttrt <= x {
		s.advance()
	}
	return s.nextRot > 0 || x < s.busy
}

// clip returns min(v, B). The lazy scan advances until its next rotation
// lies at or past v: then B, at or past it, does not lower v.
func (s *macScan) clip(v float64) float64 {
	for s.nextRot > 0 && float64(s.nextRot)*s.ttrt < v {
		s.advance()
	}
	if s.nextRot > 0 {
		return v
	}
	return min(v, s.busy)
}

// finish runs the Eq. 9 scan to its end B: avail is constant between
// multiples of TTRT and A is nondecreasing, so the condition A(t) <= avail(t)
// first becomes true at a multiple of TTRT, and the scan visits rotations as
// nextRotation directs, from the rate floor's first rotation on. It reports
// false when no rotation up to maxBusyRotations ends the busy interval —
// without an evaluation when the floor alone proves it; the caller owns the
// error, keeping the scan allocation-free (TestScanMACAllocationFree).
func (s *macScan) finish() bool {
	for s.nextRot > 0 {
		if s.nextRot > maxBusyRotations {
			return false
		}
		s.advance()
	}
	return true
}

// advance runs one step of the Eq. 9 scan, at rotation nextRot.
func (s *macScan) advance() {
	t := float64(s.nextRot) * s.ttrt
	if s.nextRot = nextRotation(s.nextRot, s.bits(t), s.svcBits); s.nextRot == 0 {
		s.busy = t
	}
}

// scanBacklog raises s.backlog to F = sup over (0, busy] of A(t) − avail(t)
// (Eq. 10). avail is constant on each rotation, the points sharing one value
// of ⌊t/TTRT⌋, and A is nondecreasing, so a rotation's supremum is A at its
// last point: the last float Avail files under it, or busy in the rotation
// that holds it. One evaluation per rotation, up to the backlog stop.
func (s *macScan) scanBacklog() {
	for r := 0.0; ; r++ {
		start := r * s.ttrt
		if !(start < s.busy) || !(start < s.backlogStop()) {
			return
		}
		t := min(s.rotationEnd(r), s.busy)
		if b := s.bits(t) - s.p.Avail(t); b > s.backlog {
			s.backlog = b
		}
		if t == s.busy {
			return
		}
	}
}

// rotationEnd returns the last float t with ⌊t/TTRT⌋ = r as Avail computes
// it: (r+1)·TTRT moved by the ulps the rounded division puts it off by.
func (s *macScan) rotationEnd(r float64) float64 {
	t := (r + 1) * s.ttrt
	for math.Floor(t/s.ttrt) <= r {
		t = math.Nextafter(t, math.Inf(1))
	}
	for math.Floor(t/s.ttrt) > r {
		t = math.Nextafter(t, 0)
	}
	return t
}

// scanDelay raises s.delay to χ = sup over (0, busy] of m(t)·TTRT − t
// (Eq. 11), m(t) = ⌈A(t)/svc⌉ + 1, by levels. m is k + 1 exactly where A
// lies in ((k−1)·svc, k·svc], so on level k the candidate is largest where A
// first exceeds (k−1)·svc:
//
//	χ = max over k >= 1 of (k+1)·TTRT − A⁻¹((k−1)·svc),
//
// with A⁻¹(y) = inf{t : A(t) > y}, nondecreasing in k. The levels are read
// in order from lo, a time before which no level from k on crosses:
//
//   - on a flat, inside its window, A⁻¹ is the flat's Crossing, a binary
//     search over the segments;
//   - elsewhere (a raw chain, or a level the window does not reach) the
//     level's candidate can exceed χ only if A crosses before
//     u = (k+1)·TTRT − χ, so A is read at u first — one evaluation drops a
//     level that cannot count — and a level that can is bisected on Bits
//     down to units.Eps, keeping the bracket's lower end, so the candidate
//     bounds the level's supremum from above;
//   - a crossing that jumps past several levels at once (a burst) settles
//     them all: every level below the value A jumps to crosses in the same
//     bracket, and the highest of them has the largest candidate.
//
// The levels end where they cross at or past the busy interval's end or the
// delay stop. The exact ⌈·⌉ — not units.CeilDiv's, which snaps a quotient a
// hair above a multiple down onto it — keeps every candidate at or above the
// snapped expression's.
//
// B enters only through three comparisons, each with the delay stop first:
// lo < min(B, stop), t < min(B, stop) and u = min(·, stop, B). With B not
// yet known, before and clip answer them exactly as the known B would, from
// the rotations scanned so far, so the search takes the same path to the
// same χ whether B was scanned ahead or on demand.
func (s *macScan) scanDelay() {
	lo := 0.0
	for k := 1.0; ; {
		stop := s.delayStop()
		if !(lo < stop && s.before(lo)) {
			return
		}
		y := (k - 1) * s.svcBits
		var t, above float64
		if s.flat != nil && lo < s.flat.Horizon() {
			var ok bool
			if t, above, ok = s.flat.Crossing(y); !ok {
				lo = s.flat.Horizon() // A(horizon) <= y: the crossing lies beyond
				continue
			}
			if !(t < stop && s.before(t)) {
				return
			}
		} else {
			u := s.clip(min((k+1)*s.ttrt-s.delay, stop))
			if !(u > lo) {
				k++ // the level cannot raise χ; lo still bounds the next
				continue
			}
			a := s.bits(u)
			if !(a > y) {
				lo, k = u, k+1
				continue
			}
			t, above = s.bisect(y, lo, u, a)
		}
		n := max(k, s.levelsBelow(above))
		if d := (n+1)*s.ttrt - t; d > s.delay {
			s.delay = d
		}
		lo, k = t, n+1
	}
}

// bisect narrows [lo, hi], A(lo) <= y < A(hi) = a, to units.Eps and returns
// the lower end and A at the upper end.
func (s *macScan) bisect(y, lo, hi, a float64) (t, above float64) {
	for hi-lo > units.Eps {
		mid := lo + (hi-lo)/2
		if !(mid > lo && mid < hi) {
			break
		}
		if v := s.bits(mid); v > y {
			hi, a = mid, v
		} else {
			lo = mid
		}
	}
	return lo, a
}

// levelsBelow returns the highest level k with (k−1)·svc < v, the levels a
// value v lies above, in the arithmetic the levels are computed in.
func (s *macScan) levelsBelow(v float64) float64 {
	k := math.Ceil(v / s.svcBits)
	for k*s.svcBits < v {
		k++
	}
	for k > 1 && !((k-1)*s.svcBits < v) {
		k--
	}
	return k
}
