package traffic

import (
	"math"
	"sort"

	"fafnet/internal/units"
)

// Flat is the canonical piecewise-linear envelope: a flat sorted breakpoint
// array. Segment i covers (ts[i], ts[i+1]] (the last segment runs to the
// horizon) and on it the envelope is the line
//
//	A(t) = vs[i] + ss[i]·(t − ts[i])
//
// with vs[i] the right-limit at ts[i] — the envelope is left-continuous, so
// an instantaneous burst at ts[i] is represented by vs[i] jumping above the
// previous segment's value at ts[i]. ts[0] is always 0. A point evaluation
// is one binary search plus one fused multiply-add; closure-tree composition
// (Delayed over Quantized over a source) is replaced by exact closed-form
// operations on the array: Sum is an O(n+m) breakpoint merge, Min the same
// walk with the crossings inserted, rate-capping and delay-shifting are
// segment walks, and frame/cell quantization emits the exact staircase
// crossings.
//
// A Flat covers [0, horizon] exactly; beyond the horizon Bits delegates to
// tail, the untransformed descriptor chain the array was lowered from, so a
// Flat is pointwise exact everywhere (fast inside the window the analyses
// actually scan, correct outside it).
//
// Every producer keeps the array nondecreasing in its own arithmetic: each
// right-limit vs[i] is at least the value the previous segment reaches at
// ts[i], as Bits computes it, and no slope is negative (settle). The extremum walks
// of the server analyses read the envelope off its segments — Crossing for
// the level crossings of Theorem 1, Backlog for the excess over a service
// line — and stand on that order.
//
// Flat is NOT safe for concurrent use: Bits maintains a segment-cursor hint
// (ascending scans — busy-period searches, merges — then locate their
// segment in O(1) amortized instead of O(log n)), and the burst bound and
// the rate floor are cached lazily. Every analyzer that holds one is itself
// documented single-threaded.
type Flat struct {
	ts, vs, ss []float64
	horizon    float64
	tail       Descriptor
	rho        float64

	// hint is the segment index of the most recent in-window evaluation.
	hint int

	// burst and floor cache BurstBound and RateFloor of the tail once
	// burstOK and floorOK are set.
	burst, floor     float64
	burstOK, floorOK bool
}

var _ Descriptor = (*Flat)(nil)

// maxFlatSegments bounds the breakpoint array of any single Flat. Lowering
// truncates the horizon rather than the values when a descriptor would
// exceed it (the tail keeps evaluations beyond the truncated window exact),
// so the bound trades window size, never correctness.
const maxFlatSegments = 1 << 14

// Horizon returns the upper end of the window the breakpoint array covers;
// evaluations beyond it delegate to the tail chain.
func (f *Flat) Horizon() float64 { return f.horizon }

// Segments returns the number of breakpoints in the array.
func (f *Flat) Segments() int { return len(f.ts) }

// Vertex returns breakpoint i of the array and the envelope's right-limit
// there.
func (f *Flat) Vertex(i int) (t, v float64) { return f.ts[i], f.vs[i] }

// Tail returns the exact descriptor chain the array was lowered from.
func (f *Flat) Tail() Descriptor { return f.tail }

// Bits implements Descriptor: locate the segment whose half-open interval
// (ts[i], ts[i+1]] contains t, then one fused multiply-add. The cursor hint
// makes ascending scans O(1) amortized; a miss falls back to binary search.
func (f *Flat) Bits(t float64) float64 {
	if t <= 0 {
		return 0
	}
	if t > f.horizon {
		return f.tail.Bits(t)
	}
	i := f.seg(t)
	return f.vs[i] + f.ss[i]*(t-f.ts[i])
}

// seg returns the index of the segment containing t, for t in (0, horizon]:
// the largest i with ts[i] < t.
func (f *Flat) seg(t float64) int {
	n := len(f.ts)
	if h := f.hint; h >= 0 && h < n && f.ts[h] < t {
		if h+1 == n || t <= f.ts[h+1] {
			return h
		}
		if h+2 == n || t <= f.ts[h+2] {
			f.hint = h + 1
			return h + 1
		}
	}
	// sort.SearchFloat64s returns the first index with ts[idx] >= t; the
	// segment owning t starts one breakpoint earlier. t > 0 = ts[0] keeps
	// the result in range.
	i := sort.SearchFloat64s(f.ts, t) - 1
	f.hint = i
	return i
}

// LongTermRate implements Descriptor.
func (f *Flat) LongTermRate() float64 { return f.rho }

// Crossing returns where the envelope first exceeds the level y >= 0 inside
// the window: t is inf{t : A(t) > y}, rounded down where it falls inside a
// segment until Bits(t) <= y, so that every point at which the computed
// envelope exceeds y lies past it. above is the value A jumps to at t when
// the crossing is a burst (the right-limit at a vertex), and y when A climbs
// through the level continuously. ok is false when A(horizon) <= y: the
// crossing, if any, lies beyond the window.
//
// It is a binary search over the segments' end values, which the
// nondecreasing array keeps sorted, and one division.
func (f *Flat) Crossing(y float64) (t, above float64, ok bool) {
	n := len(f.ts)
	if !(f.segEnd(n-1) > y) {
		return 0, 0, false
	}
	lo, hi := 0, n-1 // the first segment ending above y is in [lo, hi]
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if f.segEnd(mid) > y {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	t0, v0, s := f.ts[lo], f.vs[lo], f.ss[lo]
	if v0 > y {
		return t0, v0, true
	}
	// v0 <= y < the segment's end value, so s > 0.
	t = min(t0+(y-v0)/s, f.segT1(lo))
	for t > t0 && v0+s*(t-t0) > y {
		t = math.Nextafter(t, t0)
	}
	return t, y, true
}

// segT1 returns the right end of segment i: the next breakpoint, or the
// horizon for the last segment.
func (f *Flat) segT1(i int) float64 {
	if i+1 < len(f.ts) {
		return f.ts[i+1]
	}
	return f.horizon
}

// segEnd returns A at the right end of segment i, as Bits computes it there.
func (f *Flat) segEnd(i int) float64 {
	return endAt(f.ts, f.vs, f.ss, i, f.segT1(i))
}

// Backlog bounds the queue of a server that drains at rateBps and is fed by
// d. busy is the end of the longest busy period: the first t > 0 at which
// A(t) <= rateBps·t + units.Eps. Every window the server stays busy through
// is shorter — its arrivals exceed what it served, and they are at most
// A(window) — so backlog, the maximum of A(t) − rateBps·t over (0, busy] (0
// when it is negative), bounds the queue content at any time.
//
// It is one forward walk over a flat's segments (see excess): d itself when
// d is a Flat, and otherwise, or when the crossing lies past d's window, d
// lowered by Flatten over horizons doubling from fromHorizon until one holds
// the crossing. ok is false when none up to toHorizon does, or d has no
// lowering.
func Backlog(d Descriptor, rateBps, fromHorizon, toHorizon float64) (busy, backlog float64, ok bool) {
	f, _ := d.(*Flat)
	if f != nil {
		if busy, backlog, ok = f.excess(rateBps, f.Segments()); ok {
			return busy, backlog, true
		}
	}
	for horizon := fromHorizon; horizon <= toHorizon; horizon *= 2 {
		if f != nil && horizon <= f.horizon { //lint:allow floatcmp exact window test: a window reaching the horizon has been walked already
			continue // a window this short holds no crossing
		}
		if f = Flatten(d, horizon); f == nil {
			return 0, 0, false
		}
		if busy, backlog, ok = f.excess(rateBps, f.Segments()); ok {
			return busy, backlog, true
		}
	}
	return 0, 0, false
}

// excess is Backlog's walk over the window against the line rate·t. On each
// segment the deviation A − rate·t is linear, so its maximum is at the
// right-limit where the segment starts or at its end, and the first crossing
// of the line is solved inside the segment it falls in. The line catches up
// where the deviation is at most units.Eps and not rising: at the start of a
// segment that does not outgrow the line, or inside one that falls to it. A
// deviation rising from below Eps has not caught up — an envelope starting at
// 0 with a slope above the rate exceeds the line at once. A right-limit never
// lies below the previous segment's end, so no crossing hides at a vertex. ok
// is false when no crossing lies inside the window. The walk reads the first
// n segments only (n <= Segments()): a prefix of a sum that is the whole
// sum's bit for bit there answers as the whole sum would, wherever the
// crossing lies inside it (Workspace.Backlog).
func (f *Flat) excess(rate float64, n int) (busy, peak float64, ok bool) {
	for i := 0; i < n; i++ {
		t0, s := f.ts[i], f.ss[i]
		d0 := f.vs[i] - rate*t0
		peak = max(peak, d0)
		if d0 <= units.Eps && s <= rate { //lint:allow floatcmp exact slope test: a slope at the rate keeps the deviation where it starts
			return t0, peak, true
		}
		t1 := f.segT1(i)
		d1 := f.segEnd(i) - rate*t1
		if d1 <= units.Eps && s < rate {
			// d0 > Eps >= d1: the deviation falls to the line inside.
			return min(t0+(d0-units.Eps)/(rate-s), t1), peak, true
		}
		peak = max(peak, d1)
	}
	return 0, peak, false
}

// flatBuilder accumulates breakpoints during lowering. add keeps ts strictly
// increasing: a vertex at the time of the previous one replaces it (the last
// writer owns the right-limit), an earlier time is ignored. It keeps the
// array nondecreasing (settle). A builder with dst set writes its arrays
// back into that flat, whose arrays it started from (scratch), instead of
// allocating one; with rec set it records, for a Lowering, what each step of
// a source lowering wrote, under the step's gate.
type flatBuilder struct {
	ts, vs, ss []float64
	dst        *Flat
	rec        *Lowering
	gate       float64
}

func (b *flatBuilder) add(t, v, s float64) {
	n := len(b.ts)
	if b.rec != nil {
		b.rec.step(b.gate)
	}
	if n > 0 && t < b.ts[n-1] {
		return
	}
	if n > 0 && t == b.ts[n-1] {
		if n > 1 {
			v = settle(b.ts, b.vs, b.ss, n-2, t, v)
		}
		b.vs[n-1], b.ss[n-1] = v, s
		if b.rec != nil {
			b.rec.rewrite(b.gate, s)
		}
		return
	}
	if n > 0 {
		v = settle(b.ts, b.vs, b.ss, n-1, t, v)
	}
	b.ts = append(b.ts, t)
	b.vs = append(b.vs, v)
	b.ss = append(b.ss, s)
	if b.rec != nil {
		b.rec.gates = append(b.rec.gates, b.gate)
		b.rec.raw = append(b.rec.raw, s)
	}
}

// endAt returns the value segment i of a breakpoint array reaches at t, in
// Bits' own arithmetic.
func endAt(ts, vs, ss []float64, i int, t float64) float64 {
	return vs[i] + ss[i]*(t-ts[i])
}

// settle returns the right-limit to store at the vertex t that ends segment
// i, given the value v a closed-form rule computed there, so that the array
// stays nondecreasing: the segment's end, as Bits computes it, is at most
// the right-limit. Float rounding in a rule (a shifted vertex, a quantum
// threshold, a merged sum, a burst too short for its time's ulp) can leave
// the end a hair above v. Where v is still at or above the segment's start,
// the segment's slope is lowered until it lands on v: the vertex keeps its
// closed-form value, so no rounding carries into the next segment. Where v
// lies below the start, the vertex is raised to the end.
func settle(ts, vs, ss []float64, i int, t, v float64) float64 {
	end := endAt(ts, vs, ss, i, t)
	if v >= end {
		return v
	}
	if v < vs[i] {
		return end
	}
	s := (v - vs[i]) / (t - ts[i])
	for s > 0 && vs[i]+s*(t-ts[i]) > v {
		s = math.Nextafter(s, 0)
	}
	ss[i] = s
	return v
}

func (b *flatBuilder) full() bool { return len(b.ts) >= maxFlatSegments }

// reserve sizes an empty builder for an expected vertex count, clamped to
// the segment cap, so the lowering loops append without growth copies. An
// under-estimate only costs the usual append growth; never correctness.
func (b *flatBuilder) reserve(n int) {
	if len(b.ts) > 0 || n <= 0 {
		return
	}
	if n > maxFlatSegments {
		n = maxFlatSegments
	}
	if cap(b.ts) >= n {
		return
	}
	b.ts, b.vs, b.ss = carve(n)
}

// carve returns three empty arrays of capacity n cut from one allocation:
// a flat's breakpoints, values and slopes. Each is capped at n, so an append
// past it moves that array alone and never writes into the next.
func carve(n int) (ts, vs, ss []float64) {
	buf := make([]float64, 3*n)
	return buf[0:0:n], buf[n : n : 2*n], buf[2*n : 2*n : 3*n]
}

// finish assembles the built segments into a Flat: the builder's dst, when
// it has one, else a new one. When the builder hit the segment cap, the
// horizon shrinks to the last breakpoint so every covered point is exact;
// the tail serves the rest.
func (b *flatBuilder) finish(horizon float64, tail Descriptor) *Flat {
	if len(b.ts) == 0 || b.ts[0] != 0 || tail == nil {
		return nil
	}
	if b.full() && b.ts[len(b.ts)-1] < horizon {
		horizon = b.ts[len(b.ts)-1]
	}
	if horizon <= 0 {
		return nil
	}
	f := b.dst
	if f == nil {
		f = new(Flat)
	}
	*f = Flat{ts: b.ts, vs: b.vs, ss: b.ss, horizon: horizon, tail: tail, rho: tail.LongTermRate()}
	return f
}

// Flatten lowers a descriptor chain into one flat breakpoint array covering
// [0, horizon]. Every descriptor type of this package has a rule, and every
// rule is exact in the same sense Fuse is: the array evaluates to the chain's
// value up to float re-association, with the chain itself retained as the
// tail for points beyond the horizon. It returns nil in two cases only: the
// chain holds a type from outside the package, for which there is no rule, or
// the segment cap ended a window before a Delayed stage's delay, so nothing
// of the shifted window is left to cover.
func Flatten(d Descriptor, horizon float64) *Flat {
	var lw lowerer
	return lw.flatten(d, horizon, true)
}

// lowerer is Flatten's recursion, with what Workspace.Lower adds to it: the
// source flat src whose long lowering serves the windows past src's own, and
// the workspace whose scratch every flat but the result is built in. The zero
// lowerer is Flatten itself: it lowers a flat's tail again past the flat's
// window and allocates every flat it builds.
type lowerer struct {
	w    *Workspace
	src  *Flat
	long *Lowering
}

// builder returns the builder of one rule's flat: a new one for the result
// (root) or without a workspace, else one over a scratch flat of w.
func (lw *lowerer) builder(root bool) *flatBuilder {
	if root || lw.w == nil {
		return &flatBuilder{}
	}
	f := lw.w.scratchFlat()
	return &flatBuilder{ts: f.ts[:0], vs: f.vs[:0], ss: f.ss[:0], dst: f}
}

func (lw *lowerer) flatten(d Descriptor, horizon float64, root bool) *Flat {
	if horizon <= 0 {
		return nil
	}
	switch v := d.(type) {
	case *Flat:
		// A flat whose window covers the horizon is its own lowering; a
		// longer horizon lowers its tail afresh, or reads it off the long
		// lowering when the flat is the lowerer's source.
		if horizon <= v.horizon { //lint:allow floatcmp exact window test: a window covering the horizon is the lowering
			return v
		}
		if v == lw.src && lw.long.covers(v.tail, horizon) {
			return lw.long.prefix(lw.builder(root), horizon)
		}
		return lw.flatten(v.tail, horizon, root)
	case *View:
		if horizon <= v.horizon { //lint:allow floatcmp exact window test: a window covering the horizon is the view's own
			return v.lowered(v)
		}
		return lw.flatten(v.Tail(), horizon, root)
	case CBR, LeakyBucket, Periodic, DualPeriodic:
		b := lw.builder(root)
		lowerSource(b, d, horizon)
		return b.finish(horizon, d)
	case Delayed:
		inner := lw.flatten(v.Inner, horizon+v.Delay, false)
		if inner == nil {
			return nil
		}
		return inner.shiftCap(lw.builder(root), v.Delay, v.CapBps, horizon, d)
	case RateCapped:
		inner := lw.flatten(v.Inner, horizon, false)
		if inner == nil {
			return nil
		}
		return inner.capped(lw.builder(root), v.CapBps, horizon, d)
	case Quantized:
		inner := lw.flatten(v.Inner, horizon, false)
		if inner == nil {
			return nil
		}
		return inner.quantized(lw.builder(root), v.QuantumBits, v.OutBits, horizon, d)
	case *Aggregate:
		return lw.flatten(*v, horizon, root)
	case Aggregate:
		flats := make([]*Flat, len(v.members))
		for i, m := range v.members {
			if flats[i] = lw.flatten(m, horizon, false); flats[i] == nil {
				return nil
			}
		}
		return SumFlats(d, flats...)
	case Min:
		acc := lw.flatten(v.members[0], horizon, false)
		for _, m := range v.members[1:] {
			f := lw.flatten(m, horizon, false)
			if acc == nil || f == nil {
				return nil
			}
			acc = minFlats(lw.builder(root), acc, f, horizon, d)
		}
		return acc
	default:
		return nil
	}
}

// lowerSource writes the lowering of the source model d over horizon into b,
// setting b's gate before every step: the shortest horizon the step runs at
// (Lowering). It reports false when d is not one of the four source models.
func lowerSource(b *flatBuilder, d Descriptor, horizon float64) bool {
	b.gate = 0
	switch v := d.(type) {
	case CBR:
		b.reserve(1)
		b.add(0, 0, v.RateBps)
	case LeakyBucket:
		lowerLeakyBucket(b, v, horizon)
	case Periodic:
		lowerPeriodic(b, v, horizon)
	case DualPeriodic:
		lowerDualPeriodic(b, v, horizon)
	default:
		return false
	}
	return true
}

// lowerLeakyBucket lowers min(Peak·I, σ + ρ·I).
func lowerLeakyBucket(b *flatBuilder, v LeakyBucket, horizon float64) {
	b.reserve(2)
	switch {
	case v.PeakBps == 0:
		// Uncapped: an instantaneous burst of σ at 0, then the token rate.
		b.add(0, v.Sigma, v.Rho)
	case v.PeakBps > v.Rho:
		x := v.Sigma / (v.PeakBps - v.Rho)
		if x <= 0 {
			// σ = 0: the sustained line is the minimum from the start.
			b.add(0, 0, v.Rho)
		} else {
			b.add(0, 0, v.PeakBps)
			if x < horizon {
				b.gate = math.Nextafter(x, math.Inf(1))
				b.add(x, v.Sigma+v.Rho*x, v.Rho)
			}
		}
	default:
		// peak <= ρ: the peak line never exceeds σ + ρI.
		b.add(0, 0, v.PeakBps)
	}
}

// lowerPeriodic lowers ⌊I/P⌋·C + min(C, (I mod P)·Peak): a burst ramp of
// length C/Peak at every period start, then a plateau. A plateau is placed
// only before the next period's start as the next step computes it: the
// builder ignores a vertex earlier than the last, so a plateau rounded onto
// or past that start would drop the next ramp and leave the array below
// the envelope.
func lowerPeriodic(b *flatBuilder, v Periodic, horizon float64) {
	b.reserve(2 * (int(horizon/v.P) + 2))
	burst := v.C / v.PeakBps
	for k := 0; !b.full(); k++ {
		base := float64(k) * v.P
		if base > horizon {
			break
		}
		b.gate = base
		b.add(base, float64(k)*v.C, v.PeakBps)
		if end := base + burst; end < float64(k+1)*v.P && !(end > horizon) {
			b.gate = end
			b.add(end, float64(k)*v.C+v.C, 0)
		}
	}
}

// lowerDualPeriodic lowers Eq. 37: within each long period, short-period
// bursts ramp at the peak rate until the long-period budget C1 binds — the
// budget crossing is a true envelope vertex the closed form places exactly.
// As in lowerPeriodic, a plateau is placed only before the next long
// period's start as the next step computes it.
func lowerDualPeriodic(b *flatBuilder, v DualPeriodic, horizon float64) {
	// A whole long period holds a ramp and a plateau per short-period burst
	// until the budget C1 binds, then one plateau; the last, partial period
	// holds the bursts that start before the horizon.
	perPeriod := 2*int(math.Min(math.Ceil(v.P1/v.P2), math.Ceil(v.C1/v.C2))) + 1
	whole := math.Floor(horizon / v.P1)
	b.reserve(int(whole)*perPeriod + min(perPeriod, 2*(int((horizon-whole*v.P1)/v.P2)+1)) + 1)
	burst := v.C2 / v.PeakBps
	for k1 := 0; !b.full(); k1++ {
		base := float64(k1) * v.P1
		if base > horizon {
			break
		}
		baseV, next := float64(k1)*v.C1, float64(k1+1)*v.P1
		capped := false
		for j := 0; !capped && !b.full(); j++ {
			r0 := float64(j) * v.P2
			if !(r0 < v.P1) || base+r0 > horizon {
				break
			}
			start := float64(j) * v.C2
			// Every step of this burst runs once its start is inside the
			// window.
			b.gate = base + r0
			switch {
			case start >= v.C1:
				// Budget exhausted before this burst: plateau at C1.
				b.add(base+r0, baseV+v.C1, 0)
				capped = true
			case start+v.C2 > v.C1:
				// Budget binds mid-burst.
				b.add(base+r0, baseV+start, v.PeakBps)
				rc := r0 + (v.C1-start)/v.PeakBps
				if rc < v.P1 && base+rc < next {
					b.add(base+rc, baseV+v.C1, 0)
				}
				capped = true
			default:
				b.add(base+r0, baseV+start, v.PeakBps)
				if end := r0 + burst; end < r0+v.P2 && end < v.P1 && base+end < next {
					b.add(base+end, baseV+start+v.C2, 0)
				}
			}
		}
	}
}

// shiftCap applies the Delayed transform A'(I) = min(cap·I, A(I + d)) in
// closed form, in one walk over the source, into b: the breakpoints shift
// left by the delay and each shifted segment is intersected with the cap line
// as it is produced. tail is the chain equivalent retained for evaluations
// beyond the new horizon. A View yields the same vertices step by step
// (reader.step), without the array.
func (f *Flat) shiftCap(b *flatBuilder, delay, capBps, horizon float64, tail Descriptor) *Flat {
	h := shiftedHorizon(f.horizon, delay, horizon)
	if h <= 0 {
		return nil
	}
	// Right-limit at I = 0 is the value just after t = delay: the first
	// segment whose interior extends past delay (ts[i] <= delay when delay
	// lands exactly on a breakpoint; the right-limit uses that segment).
	i := sort.SearchFloat64s(f.ts, delay)
	if i == len(f.ts) || f.ts[i] > delay {
		i--
	}
	// Source vertices i … j−1 fall in the shifted window.
	rest := f.ts[i+1:]
	j := i + 1 + sort.Search(len(rest), func(k int) bool { return rest[k]-delay > h })
	if j-i >= maxFlatSegments {
		// The segment cap binds on the shifted vertices themselves: the
		// window shrinks to the last one kept.
		j = i + maxFlatSegments
		h = math.Min(h, f.ts[j-1]-delay)
	}
	// The cap line usually crosses the envelope once or twice.
	b.reserve(j - i + 2)
	for k := i; k < j && !b.full(); k++ {
		t0, v0, s := f.ts[k]-delay, f.vs[k], f.ss[k]
		if k == i {
			t0, v0 = 0, f.vs[i]+s*(delay-f.ts[i])
		}
		t1 := h
		if k+1 < j {
			if t1 = f.ts[k+1] - delay; !(t1 > t0) {
				// Two source vertices an ulp apart land on one instant; the
				// later one owns the right-limit.
				continue
			}
		}
		if capBps > 0 {
			b.addCapped(t0, v0, s, t1, capBps)
		} else {
			b.add(t0, v0, s)
		}
	}
	return b.finish(h, tail)
}

// shiftedHorizon is the window a shift by delay leaves of an envelope
// covering [0, upHorizon], at most horizon: a source lowered over
// horizon + delay covers the whole shifted window, though
// (horizon + delay) − delay may round an ulp below horizon.
func shiftedHorizon(upHorizon, delay, horizon float64) float64 {
	if upHorizon < horizon+delay {
		return upHorizon - delay
	}
	return horizon
}

// capped intersects the envelope with the line cap·I exactly, into b.
func (f *Flat) capped(b *flatBuilder, capBps, horizon float64, tail Descriptor) *Flat {
	h := math.Min(horizon, f.horizon)
	if h <= 0 {
		return nil
	}
	n := sort.Search(len(f.ts), func(k int) bool { return f.ts[k] > h })
	b.reserve(n + 2)
	for i := 0; i < n && !b.full(); i++ {
		t1 := h
		if i+1 < n {
			t1 = f.ts[i+1]
		}
		b.addCapped(f.ts[i], f.vs[i], f.ss[i], t1, capBps)
	}
	return b.finish(h, tail)
}

// addCapped adds the segment (t0, t1] of the line v0 + s·(t − t0), intersected
// with the line cap·t: within a linear segment the minimum switches sides at
// most once, and the crossing point is a new breakpoint.
func (b *flatBuilder) addCapped(t0, v0, s, t1, capBps float64) {
	// D(t) = A(t) − cap·t on (t0, t1]; D is linear with slope s − cap.
	d0 := v0 - capBps*t0
	d1 := v0 + s*(t1-t0) - capBps*t1
	if d0 >= 0 {
		b.add(t0, capBps*t0, capBps) // line below the envelope
		if d1 < 0 && d0 > d1 {
			tc := t0 + (t1-t0)*d0/(d0-d1)
			b.add(tc, v0+s*(tc-t0), s)
		}
	} else {
		b.add(t0, v0, s) // envelope below the line
		if d1 > 0 && d1 > d0 {
			tc := t0 + (t1-t0)*(-d0)/(d1-d0)
			b.add(tc, capBps*tc, capBps)
		}
	}
}

// minFlats lowers min(a, b): a two-pointer walk over the union of the
// operands' breakpoints. Between two union vertices both operands are lines,
// so the minimum changes sides at most once there and the crossing is the one
// new breakpoint — addCapped's rule with a second envelope in place of the
// cap line. Every emitted segment lies on one operand's line, and either line
// is at or above the minimum, so wherever a crossing rounds to, the result
// does not dip below the true envelope. It is built in bld.
func minFlats(bld *flatBuilder, a, b *Flat, horizon float64, tail Descriptor) *Flat {
	h := min(horizon, a.horizon, b.horizon)
	bld.reserve(len(a.ts) + len(b.ts) + 2)
	i, j := 0, 0
	for t0 := 0.0; t0 < h && !bld.full(); {
		t1 := h
		if i+1 < len(a.ts) {
			t1 = min(t1, a.ts[i+1])
		}
		if j+1 < len(b.ts) {
			t1 = min(t1, b.ts[j+1])
		}
		lo0, los := a.vs[i]+a.ss[i]*(t0-a.ts[i]), a.ss[i]
		hi0, his := b.vs[j]+b.ss[j]*(t0-b.ts[j]), b.ss[j]
		if hi0 < lo0 || (hi0 == lo0 && his < los) {
			lo0, los, hi0, his = hi0, his, lo0, los
		}
		bld.add(t0, lo0, los)
		// D = lo − hi is linear on (t0, t1] and starts at or below zero.
		d0, d1 := lo0-hi0, lo0+los*(t1-t0)-(hi0+his*(t1-t0))
		if d1 > 0 {
			if tc := t0 + (t1-t0)*d0/(d0-d1); tc < t1 {
				bld.add(tc, hi0+his*(tc-t0), his)
			}
		}
		if i+1 < len(a.ts) && a.ts[i+1] == t1 {
			i++
		}
		if j+1 < len(b.ts) && b.ts[j+1] == t1 {
			j++
		}
		t0 = t1
	}
	return bld.finish(h, tail)
}

// quantized applies A'(I) = ⌈A(I)/q⌉·o in closed form: each linear segment
// contributes its staircase steps at the exact quantum crossings, with the
// same units.CeilDiv snapping the closure path uses (a value within relative
// tolerance of a multiple stays on the lower step). It is built in b.
func (f *Flat) quantized(b *flatBuilder, q, o, horizon float64, tail Descriptor) *Flat {
	h := math.Min(horizon, f.horizon)
	if h <= 0 {
		return nil
	}
	n := len(f.ts)
	// One step vertex per quantum level up to the value at the horizon, plus
	// one plateau vertex per input segment.
	j := sort.SearchFloat64s(f.ts, h) - 1
	if j < 0 {
		j = 0
	}
	vh := f.vs[j] + f.ss[j]*(h-f.ts[j])
	b.reserve(n + int(vh/q) + 4)
	for i := 0; i < n && !b.full(); i++ {
		t0, v0, s := f.ts[i], f.vs[i], f.ss[i]
		if t0 > h {
			break
		}
		t1 := h
		if i+1 < n {
			t1 = math.Min(h, f.ts[i+1])
		}
		l0 := units.CeilDiv(v0, q)
		b.add(t0, l0*o, 0)
		if s <= 0 {
			continue
		}
		l1 := units.CeilDiv(v0+s*(t1-t0), q)
		for m := l0 + 1; !(m > l1) && !b.full(); m++ {
			// Level m begins where CeilDiv first rounds up — not at the exact
			// crossing of (m−1)·q but once the quotient exceeds CeilDiv's
			// relative snap radius, and at once for m = 1. Using the same
			// threshold keeps the step times aligned with the closure path.
			k := m - 1
			thresh := k * q * (1 + units.RelTol)
			tc := t0 + (thresh-v0)/s
			if tc < t0 {
				tc = t0
			}
			if tc > t1 {
				break
			}
			b.add(tc, m*o, 0)
		}
	}
	return b.finish(h, tail)
}

// ShiftCap applies the Delayed transform A'(I) = min(capBps·I, A(I + delay))
// (capBps 0 = no cap) and returns the result as a new Flat with the given
// tail chain, without lowering the source again. A View is the same envelope
// of a port's output, capped, without the copy: its readers yield ShiftCap's
// vertices bit for bit.
func (f *Flat) ShiftCap(delay, capBps, horizon float64, tail Descriptor) *Flat {
	if delay < 0 || tail == nil {
		return nil
	}
	return f.shiftCap(&flatBuilder{}, delay, capBps, horizon, tail)
}

// SumFlats returns the exact sum of the given flats — the O(Σn) breakpoint
// union merge — with the given tail chain (typically the matching Aggregate)
// serving beyond the smallest input horizon. Returns nil when no input or a
// nil input is given.
func SumFlats(tail Descriptor, flats ...*Flat) *Flat {
	if len(flats) == 0 || tail == nil {
		return nil
	}
	for _, f := range flats {
		if f == nil {
			return nil
		}
	}
	acc := flats[0]
	for _, f := range flats[1:] {
		dst := &Flat{}
		dst.ensure(acc.Segments() + f.Segments())
		mergeLinear(dst, acc, f)
		dst.tail = tail
		acc = dst
	}
	if acc == flats[0] {
		// Single input: copy, so the caller may mutate the result freely.
		dst := &Flat{}
		dst.ensure(acc.Segments())
		mergeLinear(dst, acc, acc.zero())
		acc = dst
	}
	acc.tail = tail
	acc.rho = tail.LongTermRate()
	return acc
}

// zero returns an all-zero flat over the same horizon, used to express copy
// through the one merge kernel.
func (f *Flat) zero() *Flat {
	return &Flat{ts: []float64{0}, vs: []float64{0}, ss: []float64{0}, horizon: f.horizon, tail: zeroDesc{}}
}

// zeroDesc is the identity element of envelope summation.
type zeroDesc struct{}

func (zeroDesc) Bits(float64) float64  { return 0 }
func (zeroDesc) LongTermRate() float64 { return 0 }

// ensure grows the destination arrays to hold at least n breakpoints. It is
// the cold half of the merge API: callers size the scratch here, then the
// kernels below run allocation-free.
func (f *Flat) ensure(n int) {
	if cap(f.ts) < n || cap(f.vs) < n || cap(f.ss) < n {
		f.ts, f.vs, f.ss = carve(n)
	}
}

// SumInto writes the exact sum a + b into dst, growing dst's arrays only
// when their capacity is insufficient (pass a scratch Flat reused across
// calls for the allocation-free warm path). dst's tail is set to aggregate
// the operands' tails, reusing dst's existing tail aggregate when possible.
// dst must not alias a or b.
func SumInto(dst, a, b *Flat) {
	dst.ensure(a.Segments() + b.Segments())
	dst.ensureTail(a, b)
	mergeLinear(dst, a, b)
}

// ensureTail points dst's tail at an Aggregate over a's and b's tails, reusing
// the existing one (and its backing array, when large enough) so warm sums
// stay allocation-free.
func (dst *Flat) ensureTail(a, b *Flat) {
	agg, ok := dst.tail.(*Aggregate)
	if !ok {
		agg = &Aggregate{members: make([]Descriptor, 0, 8)}
		dst.tail = agg
	}
	agg.members = append(agg.members[:0], a.tail, b.tail)
}

// mergeLinear writes a + b into dst over the union of breakpoints, clipped to
// the smaller horizon, keeping it nondecreasing as flatBuilder.add does. It
// is the one summation kernel — SumFlats, SumInto and Workspace.Sum all fold
// through it, so "the sum" of a member list has one association and one
// interpolation — and runs on preallocated scratch: the caller has sized dst,
// so the kernel only writes by index.
func mergeLinear(dst, a, b *Flat) {
	h := math.Min(a.horizon, b.horizon)
	na, nb := len(a.ts), len(b.ts)
	ts := dst.ts[:cap(dst.ts)]
	vs := dst.vs[:cap(dst.vs)]
	ss := dst.ss[:cap(dst.ss)]
	k := 0
	i, j := 0, 0
	for i < na || j < nb {
		var t float64
		takeA, takeB := false, false
		switch {
		case i < na && j < nb && a.ts[i] == b.ts[j]:
			t, takeA, takeB = a.ts[i], true, true
		case j == nb || (i < na && a.ts[i] < b.ts[j]):
			t, takeA = a.ts[i], true
		default:
			t, takeB = b.ts[j], true
		}
		if t > h {
			break
		}
		var va, vb, sa, sb float64
		if takeA {
			va, sa = a.vs[i], a.ss[i]
			i++
		} else {
			p := i - 1
			va = a.vs[p] + a.ss[p]*(t-a.ts[p])
			sa = a.ss[p]
		}
		if takeB {
			vb, sb = b.vs[j], b.ss[j]
			j++
		} else {
			p := j - 1
			vb = b.vs[p] + b.ss[p]*(t-b.ts[p])
			sb = b.ss[p]
		}
		v := va + vb
		if k > 0 {
			v = settle(ts, vs, ss, k-1, t, v)
		}
		ts[k] = t
		vs[k] = v
		ss[k] = sa + sb
		k++
	}
	dst.ts = ts[:k]
	dst.vs = vs[:k]
	dst.ss = ss[:k]
	dst.horizon = h
	dst.rho = a.rho + b.rho
	dst.hint = 0
	dst.burstOK, dst.floorOK = false, false
}
