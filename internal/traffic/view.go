package traffic

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Envelope is a lowered envelope, the unit an analysis hands from server to
// server: a Flat, or a View reading one through the ports after it. Both are
// pointers with identity, which caches may key by.
type Envelope interface {
	Descriptor
	// Horizon is the end of the window the envelope's vertices cover; past
	// it, Bits delegates to Tail.
	Horizon() float64
	// Tail is the exact descriptor chain the envelope stands for.
	Tail() Descriptor
	burstBound() float64
}

var (
	_ Envelope = (*Flat)(nil)
	_ Envelope = (*View)(nil)
)

// View is the envelope leaving a FIFO port that delays by at most delay and
// sends at capBps: A'(I) = min(capBps·I, A(I + delay)), where A is the
// envelope entering the port — a Flat, or the View leaving the port before.
// It keeps no vertices of its own. A reader yields the vertices ShiftCap
// would write, computed from the upstream envelope as a consumer asks for
// them, with the same addCapped and settle arithmetic, and a chain of views
// subtracts its delays one at a time, as ShiftCap over ShiftCap would. The
// consumers are a port's walk (Workspace.Backlog and Sum) and the receiver's
// quantization (Workspace.Quantize), both reading into workspace scratch.
//
// Its tail is the fused chain FuseRoot(Delayed{up.Tail(), delay, capBps}),
// built on the first call of Tail, which only an evaluation past the window
// makes: the long-term rate and the burst bound the analyses read are
// computed from the fused chain's parameters without building it. A point
// read inside the window materializes the view's vertices once and keeps
// them; no analysis reads a view's points.
//
// A View is NOT safe for concurrent use (its tail and vertices are filled on
// demand); every analyzer that holds one is itself single-threaded.
type View struct {
	up                     Envelope
	delay, capBps, horizon float64
	rho                    float64
	// bound is at least the number of vertices the view yields, size the
	// number a reader reserves for: the upstream's and two cap crossings.
	bound, size int
	// fused is the tail's root as a value: Delayed{base, Σ delays, capBps},
	// or RateCapped{base, capBps} when the delays sum to 0, when known is
	// set (see NewView); otherwise the tail is built from up's.
	fused Delayed
	known bool

	tail    Descriptor
	burst   float64
	burstOK bool
	pts     *Flat
	// rd is the reader of the workspace that read the view last; its
	// vertices serve a later read of the same evaluation (Workspace.reader).
	rd *reader
}

// NewView returns the envelope leaving a port that delays up by at most
// delay and sends at capBps > 0, over the window min(horizon, what of up's
// the delay leaves) — ShiftCap's window. A view that might yield more
// vertices than a flat may hold is materialized at once instead, as
// ShiftCap's flat. An envelope past the window (the delay used up's window)
// is a view whose Horizon is not positive: every evaluation goes to its tail.
func NewView(up Envelope, delay, capBps, horizon float64) (Envelope, error) {
	if up == nil {
		return nil, errors.New("traffic: a view requires an upstream envelope")
	}
	if !(delay >= 0) || math.IsInf(delay, 1) {
		return nil, fmt.Errorf("traffic: view delay=%v: must be finite and non-negative", delay)
	}
	if !(capBps > 0) {
		return nil, fmt.Errorf("traffic: view cap=%v: %w", capBps, errNonPositive)
	}
	v := &View{up: up, delay: delay, capBps: capBps,
		horizon: shiftedHorizon(up.Horizon(), delay, horizon),
		rho:     math.Min(up.LongTermRate(), capBps)}
	switch u := up.(type) {
	case *Flat:
		v.bound, v.size = 2*len(u.ts), len(u.ts)+2
		switch u.tail.(type) {
		case Delayed, RateCapped:
			// The tail fuses with a transform of its own: build it as
			// FuseRoot does when asked.
		default:
			v.fused, v.known = Delayed{Inner: u.tail, Delay: delay, CapBps: capBps}, true
		}
	case *View:
		v.bound, v.size = 2*u.bound, u.size+2
		if u.known && u.capBps >= capBps { //lint:allow floatcmp exact domination bound, Fuse's: a cap even one ulp below the outer one may bind
			// Fuse's D∘D (or D∘R) rule: the delays add, the outer cap stays.
			v.fused, v.known = Delayed{Inner: u.fused.Inner, Delay: u.fused.Delay + delay, CapBps: capBps}, true
		}
	}
	if v.bound >= maxFlatSegments && v.horizon > 0 {
		return v.lowered(v.Tail()), nil
	}
	return v, nil
}

// Horizon implements Envelope.
func (v *View) Horizon() float64 { return v.horizon }

// LongTermRate implements Descriptor: the upstream's rate, capped.
func (v *View) LongTermRate() float64 { return v.rho }

// Bits implements Descriptor: the tail past the window, the view's vertices
// inside it.
func (v *View) Bits(t float64) float64 {
	if t <= 0 {
		return 0
	}
	if t > v.horizon {
		return v.Tail().Bits(t)
	}
	if v.pts == nil {
		v.pts = v.lowered(v)
	}
	return v.pts.Bits(t)
}

// Tail implements Envelope: the fused chain, built on first use.
func (v *View) Tail() Descriptor {
	if v.tail == nil {
		switch {
		case !v.known:
			v.tail = FuseRoot(Delayed{Inner: v.up.Tail(), Delay: v.delay, CapBps: v.capBps})
		case v.fused.Delay == 0:
			v.tail = RateCapped{Inner: v.fused.Inner, CapBps: v.fused.CapBps}
		default:
			v.tail = v.fused
		}
	}
	return v.tail
}

// burstBound returns BurstBound of the tail, from the fused chain's
// parameters when they are known, computed on first use.
func (v *View) burstBound() float64 {
	if !v.burstOK {
		switch {
		case !v.known:
			v.burst = BurstBound(v.Tail())
		case v.fused.Delay == 0:
			v.burst = RateCapped{Inner: v.fused.Inner, CapBps: v.fused.CapBps}.burstBound()
		default:
			v.burst = v.fused.burstBound()
		}
		v.burstOK = true
	}
	return v.burst
}

// lowered returns the view's vertices as a new Flat with the given tail: the
// flat ShiftCap writes over the upstream's, nil when the view has no window.
// The view itself is a tail with the same values past the window that builds
// the fused chain only when they are asked for.
func (v *View) lowered(tail Descriptor) *Flat {
	if v.horizon <= 0 {
		return nil
	}
	var up *Flat
	switch u := v.up.(type) {
	case *Flat:
		up = u
	case *View:
		if up = u.pts; up == nil {
			up = u.lowered(u)
		}
	}
	return up.shiftCap(&flatBuilder{}, v.delay, v.capBps, v.horizon, tail)
}

// reader writes a view's vertices into scratch arrays as far as a consumer
// asks for them: one step of ShiftCap's walk over the upstream's vertices at
// a time, through the same builder, so that the arrays grow into ShiftCap's
// exactly. The upstream is read from its array when it is a flat and
// through its own reader when it is a view.
type reader struct {
	v *View
	// w and epoch say where and when the reader was handed out: it serves
	// v while w's epoch has not moved on.
	w     *Workspace
	epoch uint64
	b     flatBuilder
	up    *Flat
	upr   *reader
	// k is the upstream vertex the walk stands on, and t0, v0, s the segment
	// that starts there in the view's time.
	k            int
	t0, v0, s    float64
	started, end bool
}

// vertex returns the final vertex k of the reader's output — no later step
// rewrites it — reading on as far as that takes. ok is false when the view
// has no vertex k.
func (r *reader) vertex(k int) (t, v, s float64, ok bool) {
	for !r.end && len(r.b.ts) < k+3 {
		r.step()
	}
	if k >= len(r.b.ts) {
		return 0, 0, 0, false
	}
	return r.b.ts[k], r.b.vs[k], r.b.ss[k], true
}

// step runs one iteration of ShiftCap's walk: the upstream segment the walk
// stands on, shifted by the delay and capped, into the builder.
func (r *reader) step() {
	v := r.v
	if !r.started {
		// The walk starts on the last upstream vertex at or before the
		// delay, with the value it reaches there.
		r.started = true
		if v.horizon <= 0 {
			r.end = true
			return
		}
		i := 0
		if r.up != nil {
			if i = sort.SearchFloat64s(r.up.ts, v.delay); i == len(r.up.ts) || r.up.ts[i] > v.delay {
				i--
			}
		} else {
			for {
				t, _, _, ok := r.upr.vertex(i + 1)
				if !ok || t > v.delay {
					break
				}
				i++
			}
		}
		var t, val, s float64
		if r.up != nil {
			t, val, s = r.up.ts[i], r.up.vs[i], r.up.ss[i]
		} else {
			t, val, s, _ = r.upr.vertex(i)
		}
		r.k, r.t0, r.v0, r.s = i, 0, val+s*(v.delay-t), s
	}
	t1 := v.horizon
	var tn, vn, sn float64
	var ok bool
	if up, k := r.up, r.k+1; up != nil {
		// The flat's arrays, read in place: most views stand on one.
		if ok = k < len(up.ts); ok {
			tn, vn, sn = up.ts[k], up.vs[k], up.ss[k]
		}
	} else {
		tn, vn, sn, ok = r.upr.vertex(k)
	}
	next := ok && !(tn-v.delay > v.horizon)
	if next {
		if t1 = tn - v.delay; !(t1 > r.t0) {
			// Two upstream vertices an ulp apart land on one instant; the
			// later one owns the right-limit.
			r.k, r.t0, r.v0, r.s = r.k+1, t1, vn, sn
			return
		}
	}
	r.b.addCapped(r.t0, r.v0, r.s, t1, v.capBps)
	if !next {
		r.end = true
		return
	}
	r.k, r.t0, r.v0, r.s = r.k+1, t1, vn, sn
}

// through reads on until the output holds the first vertex past stop and
// the vertex after it, or all of the view, and returns how many vertices of
// the output a walk to stop may read: through that first vertex past stop
// (cut), or all of them. Those vertices are final but the last one's slope,
// which only segments past stop read.
func (r *reader) through(stop float64) (n int, cut bool) {
	j := sort.SearchFloat64s(r.b.ts, math.Nextafter(stop, math.Inf(1)))
	for {
		for j < len(r.b.ts) && !(r.b.ts[j] > stop) {
			j++
		}
		if j+1 < len(r.b.ts) {
			return j + 1, true
		}
		if r.end {
			return len(r.b.ts), false
		}
		r.step()
	}
}
