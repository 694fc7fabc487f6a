package traffic

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// sameArrays reports whether two flats hold the same vertices bit for bit
// over their first n vertices (all of them when n < 0), the last one's slope
// included only when withLastSlope is set.
func sameArrays(a, b *Flat, n int, withLastSlope bool) bool {
	if n < 0 {
		if len(a.ts) != len(b.ts) {
			return false
		}
		n = len(a.ts)
	}
	if len(a.ts) < n || len(b.ts) < n {
		return false
	}
	for i := 0; i < n; i++ {
		if math.Float64bits(a.ts[i]) != math.Float64bits(b.ts[i]) || math.Float64bits(a.vs[i]) != math.Float64bits(b.vs[i]) {
			return false
		}
		if (i < n-1 || withLastSlope) && math.Float64bits(a.ss[i]) != math.Float64bits(b.ss[i]) {
			return false
		}
	}
	return true
}

// viewChain is one member's envelopes past k ports: the views, and the
// ShiftCap copies the analyzer built before them, each carrying the fused
// chain as its tail. copies[k] is nil where the delay used up the window.
type viewChain struct {
	views  []Envelope
	copies []*Flat
}

// chainOf shifts f past one port per delay, as views and as copies.
func chainOf(t *testing.T, f *Flat, delays []float64, capBps, horizon float64) viewChain {
	t.Helper()
	var c viewChain
	var up Envelope = f
	cp := f
	for _, d := range delays {
		v, err := NewView(up, d, capBps, horizon)
		if err != nil {
			t.Fatal(err)
		}
		var next *Flat
		if cp != nil {
			next = cp.ShiftCap(d, capBps, horizon, FuseRoot(Delayed{Inner: cp.Tail(), Delay: d, CapBps: capBps}))
		}
		c.views, c.copies = append(c.views, v), append(c.copies, next)
		up, cp = v, next
	}
	return c
}

// TestViewsReadAsShiftCapCopies holds a chain of one to three views over a
// lowered member (FuzzWorkspaceSum's decoder: every source kind, behind
// quantization and delays) to the ShiftCap copies it replaces, bit for bit:
// the vertices a reader writes, whole and cut past a stop, the window, the
// tail (deep-equal to the copy's fused chain), the burst bound and the rate,
// point reads inside and past the window, Flatten, and the workspace's sum,
// port walk and quantization over views against the same over copies. One
// warm workspace reads every case, in a random order of prefix and whole
// reads, and forgets its readers now and then, so resumed and stale readers
// are read too. Delays reach past the window, where a view has none left.
func TestViewsReadAsShiftCapCopies(t *testing.T) {
	const horizon = 0.025
	rng := rand.New(rand.NewSource(7))
	var ws, ref Workspace
	cases := 0
	for cases < 400 {
		data := make([]byte, 64)
		rng.Read(data)
		r := &sumFuzzInput{b: data}
		d := r.member()
		if d == nil {
			continue
		}
		f := Flatten(d, horizon)
		if f == nil {
			continue
		}
		cases++
		delays := make([]float64, 1+rng.Intn(3))
		for i := range delays {
			switch rng.Intn(8) {
			case 0:
				delays[i] = 0
			case 1:
				delays[i] = horizon * (0.5 + rng.Float64())
			default:
				delays[i] = 2e-3 * rng.Float64()
			}
		}
		capBps := 135e6
		if rng.Intn(4) == 0 {
			capBps = 1e6 + 1e8*rng.Float64()
		}
		c := chainOf(t, f, delays, capBps, horizon)
		if rng.Intn(5) == 0 {
			ws.Forget()
		}
		for k, e := range c.views {
			cp := c.copies[k]
			v, ok := e.(*View)
			if !ok {
				// A view that might outgrow the segment cap is the copy.
				if f, _ := e.(*Flat); f == nil || cp == nil || !sameArrays(f, cp, -1, true) || f.Horizon() != cp.Horizon() ||
					!reflect.DeepEqual(f.Tail(), cp.Tail()) {
					t.Fatalf("case %d, port %d: NewView returned %T, not the copy", cases, k, e)
				}
				continue
			}
			if (cp == nil) != (v.Horizon() <= 0) {
				t.Fatalf("case %d, port %d: view window %v, copy %v", cases, k, v.Horizon(), cp)
			}
			if !reflect.DeepEqual(v.Tail(), FuseRoot(Delayed{Inner: v.up.Tail(), Delay: v.delay, CapBps: v.capBps})) {
				t.Fatalf("case %d, port %d: tail %v, want the fused chain", cases, k, v.Tail())
			}
			fresh, _ := NewView(v.up, v.delay, v.capBps, horizon)
			if got, want := BurstBound(fresh), BurstBound(v.Tail()); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("case %d, port %d: burst bound %v, the tail's %v", cases, k, got, want)
			}
			if got, want := v.LongTermRate(), v.Tail().LongTermRate(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("case %d, port %d: rate %v, the tail's %v", cases, k, got, want)
			}
			for i := 0; i < 8; i++ {
				pt := 2 * horizon * rng.Float64()
				want := v.Tail().Bits(pt)
				if cp != nil {
					want = cp.Bits(pt)
				}
				if got := v.Bits(pt); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("case %d, port %d: Bits(%v) = %v, the copy's %v", cases, k, pt, got, want)
				}
			}
			if cp == nil {
				continue
			}
			if v.Horizon() != cp.Horizon() {
				t.Fatalf("case %d, port %d: window %v, the copy's %v", cases, k, v.Horizon(), cp.Horizon())
			}
			rd := ws.reader(v)
			if rng.Intn(2) == 0 {
				stop := horizon * rng.Float64()
				n, cut := rd.through(stop)
				j := 0
				for j < len(cp.ts) && !(cp.ts[j] > stop) {
					j++
				}
				if wantCut := j+1 < len(cp.ts); cut != wantCut || (cut && n != j+1) || (!cut && n != len(cp.ts)) {
					t.Fatalf("case %d, port %d: read to %v gives %d vertices (cut %v); the copy has %d, first past the stop %d", cases, k, stop, n, cut, len(cp.ts), j)
				}
				if !sameArrays(&Flat{ts: rd.b.ts, vs: rd.b.vs, ss: rd.b.ss}, cp, n, false) {
					t.Fatalf("case %d, port %d: the prefix read to %v differs from the copy", cases, k, stop)
				}
			}
			n, _ := rd.through(math.Inf(1))
			if got := (&Flat{ts: rd.b.ts[:n], vs: rd.b.vs[:n], ss: rd.b.ss[:n]}); !sameArrays(got, cp, -1, true) {
				t.Fatalf("case %d, port %d: the view reads\n%v %v %v\nthe copy holds\n%v %v %v", cases, k, got.ts, got.vs, got.ss, cp.ts, cp.vs, cp.ss)
			}
			for _, h := range []float64{horizon / 2, 2 * horizon} {
				a, b := Flatten(v, h), Flatten(cp, h)
				if (a == nil) != (b == nil) || (a != nil && (!sameArrays(a, b, -1, true) || a.Horizon() != b.Horizon())) {
					t.Fatalf("case %d, port %d: Flatten over %v differs from the copy's", cases, k, h)
				}
			}
			q := 1000 + 5e4*rng.Float64()
			a := ws.Quantize(v, q, q*1.1, horizon, zeroDesc{})
			b := cp.quantized(&flatBuilder{}, q, q*1.1, horizon, zeroDesc{})
			if (a == nil) != (b == nil) || (a != nil && (!sameArrays(a, b, -1, true) || a.Horizon() != b.Horizon())) {
				t.Fatalf("case %d, port %d: Quantize differs from the copy's", cases, k)
			}
		}
		// A port's members: the stage-0 flat and the views, against the
		// same list with the copies in the views' places.
		views, copies := []Envelope{f}, []Envelope{f}
		for k, v := range c.views {
			if c.copies[k] != nil {
				views, copies = append(views, v), append(copies, c.copies[k])
			}
		}
		var rate float64
		for _, m := range copies {
			rate += m.LongTermRate()
		}
		for _, scale := range []float64{1.05, 1.5, 4} {
			ws.Forget()
			gb, gl, gok := ws.Backlog(views, rate*scale, walkFrom, walkTo)
			wb, wl, wok := ref.Backlog(copies, rate*scale, walkFrom, walkTo)
			if gok != wok || math.Float64bits(gb) != math.Float64bits(wb) || math.Float64bits(gl) != math.Float64bits(wl) {
				t.Fatalf("case %d: the walk over views reads (%v, %v, %v), over copies (%v, %v, %v)", cases, gb, gl, gok, wb, wl, wok)
			}
		}
		if got, want := ws.Sum(views), ref.Sum(copies); !sameArrays(got, want, -1, true) || got.Horizon() != want.Horizon() {
			t.Fatalf("case %d: the sum over views differs from the sum over copies", cases)
		}
	}
}

// TestViewPastItsWindow: a delay that uses up the upstream window leaves a
// view with no vertices. Every point of it is its fused chain's, a port walk
// over it lowers the members' sum from the start as Backlog lowers any
// descriptor, Sum has nothing to sum, and a receiver's quantization has no
// window.
func TestViewPastItsWindow(t *testing.T) {
	const horizon = 0.025
	src, err := NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	f := Flatten(src, horizon)
	e, err := NewView(f, 1.2*horizon, 135e6, horizon)
	if err != nil {
		t.Fatal(err)
	}
	v := e.(*View)
	if v.Horizon() > 0 {
		t.Fatalf("a delay past the window leaves a window of %v", v.Horizon())
	}
	for _, pt := range []float64{1e-4, horizon / 2, horizon, 3 * horizon} {
		if got, want := v.Bits(pt), v.Tail().Bits(pt); got != want {
			t.Errorf("Bits(%v) = %v, the tail's %v", pt, got, want)
		}
	}
	var ws Workspace
	members := []Envelope{f, v}
	rate := 1.5 * (f.LongTermRate() + v.LongTermRate())
	busy, backlog, ok := ws.Backlog(members, rate, walkFrom, walkTo)
	wb, wl, wok := Backlog(NewAggregate(f, v), rate, walkFrom, walkTo)
	if !ok || busy != wb || backlog != wl || ok != wok {
		t.Errorf("the walk reads (%v, %v, %v), the lowered sum (%v, %v, %v)", busy, backlog, ok, wb, wl, wok)
	}
	if ws.Sum(members) != nil {
		t.Error("Sum over a view past its window returned a sum")
	}
	if ws.Quantize(v, 1000, 1100, horizon, v) != nil {
		t.Error("Quantize of a view past its window returned a flat")
	}
}

// TestViewReadsAllocationFree pins the read path of the analysis at zero
// allocations once the workspace's readers have grown: a port walk and a
// sum over members behind one and two ports, and the receiver's
// quantization of a two-port view, each reading its views afresh.
func TestViewReadsAllocationFree(t *testing.T) {
	const horizon = 0.025
	a, b := flatPair(t)
	v1, err := NewView(a, 0.4e-3, 140e6, horizon)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := NewView(v1, 0.3e-3, 140e6, horizon)
	if err != nil {
		t.Fatal(err)
	}
	members := []Envelope{b, v1, v2}
	var rate float64
	for _, m := range members {
		rate += m.LongTermRate()
	}
	var ws Workspace
	read := func() {
		ws.Forget()
		ws.Backlog(members, 1.5*rate, walkFrom, walkTo)
		ws.Forget()
		ws.Sum(members)
		ws.Forget()
		ws.Quantize(v2, 36000, 94*384, horizon, v2)
	}
	read()
	if n := testing.AllocsPerRun(100, read); n != 0 {
		t.Errorf("warm view reads: %v allocs per run, want 0", n)
	}
}
