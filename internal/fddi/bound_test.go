package fddi

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"fafnet/internal/traffic"
)

// unitOf maps an arbitrary fuzz float onto [0, 1).
func unitOf(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0.5
	}
	_, frac := math.Modf(math.Abs(x))
	return frac
}

// logSpan maps x onto [lo, hi], evenly on a log scale.
func logSpan(x, lo, hi float64) float64 { return lo * math.Pow(hi/lo, unitOf(x)) }

// fuzzSource builds one of the three source models from fuzz parameters, or
// nil when the constructor refuses them.
func fuzzSource(kind uint8, a, b, c, d float64) traffic.Descriptor {
	var (
		src traffic.Descriptor
		err error
	)
	switch kind % 3 {
	case 0:
		cb, p := logSpan(a, 1e3, 1e6), logSpan(b, 1e-4, 0.1)
		// A peak at exactly C/P is a constant rate: the tightest σ there is.
		peak := cb / p
		if u := unitOf(c); u >= 0.25 {
			peak *= 1 + 100*u
		}
		src, err = traffic.NewPeriodic(cb, p, peak)
	case 1:
		c1, p1 := logSpan(a, 1e3, 1e6), logSpan(b, 1e-3, 0.1)
		p2 := p1 * logSpan(c, 1e-3, 1)
		c2 := c1 * math.Min(1, p2/p1*logSpan(d, 1, 1e3))
		src, err = traffic.NewDualPeriodic(c1, p1, c2, p2, c2/p2*(1+10*unitOf(a*7)))
	default:
		rho := logSpan(b, 1e4, 5e7)
		peak := 0.0
		if u := unitOf(c); u >= 0.5 {
			peak = rho * (1 + 1e3*(u-0.5))
		}
		src, err = traffic.NewLeakyBucket(logSpan(a, 1, 1e6)*unitOf(d*3), rho, peak)
	}
	if err != nil {
		return nil
	}
	return src
}

// fuzzChain wraps in in up to three transforms, two bits of chain each: a
// Delayed (a port or a MAC), a Quantized (a frame/cell conversion, padding or
// not) or a RateCapped (a line rate), parameterized by e.
func fuzzChain(in traffic.Descriptor, chain uint8, e float64) traffic.Descriptor {
	for level := 0; level < 3; level++ {
		x := e * float64(7*level+3)
		var err error
		switch (chain >> (2 * level)) & 3 {
		case 1:
			capBps := 0.0
			if unitOf(x*5) >= 0.3 {
				capBps = logSpan(x*11, 1e6, 1e9)
			}
			in, err = traffic.NewDelayed(in, 0.05*unitOf(x), capBps)
		case 2:
			q := logSpan(x, 100, 1e5)
			o := q
			if unitOf(x*13) >= 0.5 {
				o *= 1 + unitOf(x*17)
			}
			in, err = traffic.NewQuantized(in, q, o)
		case 3:
			in, err = traffic.NewRateCapped(in, logSpan(x, 1e6, 1e9))
		}
		if err != nil {
			return nil
		}
	}
	return in
}

// FuzzDelayBound holds DelayBound, and the grid stop that stands on the same
// line, to the scan over the full grid. Sources of every model, through chains
// of the transforms the analysis builds, raw and lowered to flats, are
// analysed at allocations from a hair above the stability limit to six times
// it. Whenever the bound answers, AnalyzeMAC converges — neither overload nor
// the busy-interval cut — and its χ is at most the bound, so the bound holds
// within every limit it fits under. Whenever the line σ + ρ·t is finite and
// the analysis converges, whether or not the bound answers, the premise the
// bound and the stops stand on is checked — at the ulp-neighbours of every
// level crossing and at 401 points over the busy interval the computed
// envelope is under the padded line — and χ and F are held to the exhaustive
// sample of their expressions (checkMACBounds), which asks nothing of the
// envelope's monotonicity. AnalyzeMACDelay, which scans the busy interval
// only as far as the delay search reads it whenever the bound's convergence
// proof holds, returns AnalyzeMAC's χ, error class and output envelope bit
// for bit, with no more envelope evaluations than the eager delay-only scan
// (checkDelayOnly). The last seed's busy interval is over 500 rotations
// deep.
func FuzzDelayBound(f *testing.F) {
	f.Add(uint8(1), uint8(0), false, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2)
	f.Add(uint8(0), uint8(0b100110), true, 0.1, 0.9, 0.1, 0.2, 0.45, 0.001)
	f.Add(uint8(2), uint8(0b01), false, 0.99, 0.5, 0.1, 0.9, 0.2, 0.0)
	f.Add(deepSeed.kind, deepSeed.chain, deepSeed.lowered, deepSeed.a, deepSeed.b, deepSeed.c, deepSeed.d, deepSeed.e, deepSeed.h)
	f.Fuzz(func(t *testing.T, kind, chain uint8, lowered bool, a, b, c, d, e, h float64) {
		src := fuzzSource(kind, a, b, c, d)
		if src == nil {
			return
		}
		chained := fuzzChain(src, chain, e)
		if chained == nil {
			return
		}
		in := chained
		if lowered {
			flat := traffic.Flatten(traffic.Fuse(in), 0.025)
			if flat == nil {
				return
			}
			in = flat
		}
		ring := testRing()
		hMin := in.LongTermRate() * ring.TTRT / ring.BandwidthBps
		if !(hMin > 0) {
			return
		}
		p := MACParams{Ring: ring, H: hMin * (1 + logSpan(h, 1e-5, 5))}
		bound, ok := DelayBound(in, p)
		res, err := AnalyzeMAC(in, p, Options{})
		if ok && err != nil {
			t.Fatalf("%v (lowered %v) at H=%v: the bound answered %v, the analysis failed: %v", chained, lowered, p.H, bound, err)
		}
		if ok && res.Delay > bound {
			t.Fatalf("%v (lowered %v) at H=%v: chi = %v exceeds the closed-form bound %v", chained, lowered, p.H, res.Delay, bound)
		}
		checkDelayOnly(t, in, p, res, err)
		sigma, rho := paddedLine(in)
		if err != nil || math.IsInf(sigma, 1) {
			return
		}
		_, crossings := referenceChi(in, p, res.BusyInterval)
		for i := 0; i <= 400; i++ {
			crossings = append(crossings, res.BusyInterval*float64(i)/400)
		}
		var pts []float64
		for _, x := range crossings {
			for _, pt := range ulpNeighbours(pts[:0], x) {
				if a := in.Bits(pt); pt > 0 && a > sigma+rho*pt {
					t.Fatalf("%v (lowered %v): A(%v) = %v above the padded line %v + %v·t = %v", chained, lowered, pt, a, sigma, rho, sigma+rho*pt)
				}
			}
		}
		checkMACBounds(t, in, p)
	})
}

// TestDelayBoundDeclines pins the cases the bound leaves to the scan: a
// buffer bound (whose verdict needs F), an allocation at or below the
// stability limit, a source without a burst rule, and an invalid ring.
func TestDelayBoundDeclines(t *testing.T) {
	in := mustPeriodic(t, 1e5, 0.010, 100e6)
	if _, ok := DelayBound(in, MACParams{Ring: testRing(), H: 2e-3}); !ok {
		t.Fatal("the closed-form case of TestAnalyzeMACClosedForm got no answer")
	}
	if _, ok := DelayBound(in, MACParams{Ring: testRing(), H: 2e-3, BufferBits: 1e6}); ok {
		t.Error("answered with a buffer bound")
	}
	if _, ok := DelayBound(in, MACParams{Ring: testRing(), H: 0.8e-3}); ok {
		t.Error("answered at the stability limit")
	}
	if _, ok := DelayBound(withoutBurstRule(t, in), MACParams{Ring: testRing(), H: 2e-3}); ok {
		t.Error("answered for a source without a burst rule")
	}
	bad := testRing()
	bad.TTRT = 0
	if _, ok := DelayBound(in, MACParams{Ring: bad, H: 2e-3}); ok {
		t.Error("answered on an invalid ring")
	}
}

// deepSeed is FuzzDelayBound's deep seed: the paper's dual-periodic source
// behind a port delay and a line cap, lowered, at an allocation 0.5 % above
// the stability limit (1 + logSpan(h, 1e-5, 5) = 1.005).
var deepSeed = struct {
	kind, chain   uint8
	lowered       bool
	a, b, c, d, e float64
	h             float64
}{1, 0b1001, true, 0.7, 0.6, 0.5, 0.4, 0.3, math.Log(5e-3/1e-5) / math.Log(5/1e-5)}

// TestDelayOnlyDeepSeed: FuzzDelayBound's deep seed is what it is there for
// — a busy interval over 500 rotations deep, whose end the closed-form
// bound proves, and a delay search that stops short of it — so the lazy
// scan runs there, and checkDelayOnly holds it to the eager one.
func TestDelayOnlyDeepSeed(t *testing.T) {
	s := deepSeed
	in := traffic.Flatten(traffic.Fuse(fuzzChain(fuzzSource(s.kind, s.a, s.b, s.c, s.d), s.chain, s.e)), 0.025)
	ring := testRing()
	p := MACParams{Ring: ring, H: in.LongTermRate() * ring.TTRT / ring.BandwidthBps * (1 + logSpan(s.h, 1e-5, 5))}
	if _, ok := DelayBound(in, p); !ok {
		t.Fatal("the closed-form bound does not answer: AnalyzeMACDelay scans B ahead")
	}
	res, err := AnalyzeMAC(in, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rot := res.BusyInterval / ring.TTRT; rot < 500 {
		t.Fatalf("busy interval of %v rotations, want at least 500", rot)
	}
	got, err := AnalyzeMACDelay(in, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got.BusyInterval) {
		t.Errorf("the delay search read B = %v: it no longer stops short of the busy interval's end", got.BusyInterval)
	}
	checkDelayOnly(t, in, p, res, nil)
}

// checkDelayOnly holds AnalyzeMACDelay on in at p to AnalyzeMAC's result
// res and error err: the same error class; on success χ and the output
// envelope bit for bit, B either not scanned (NaN) or AnalyzeMAC's, and no
// more envelope evaluations than the eager delay-only scan, busyEnd and
// then scanMAC without the backlog, spends.
func checkDelayOnly(t *testing.T, in traffic.Descriptor, p MACParams, res MACResult, err error) {
	t.Helper()
	before := mMACEnvelopeEvals.Value()
	got, gotErr := AnalyzeMACDelay(in, p, Options{})
	evals := mMACEnvelopeEvals.Value() - before
	if class, want := errClass(gotErr), errClass(err); class != want {
		t.Fatalf("%v at H=%v: AnalyzeMACDelay fails with %v, AnalyzeMAC with %v", in, p.H, gotErr, err)
	}
	if err != nil {
		return
	}
	if math.Float64bits(got.Delay) != math.Float64bits(res.Delay) || !reflect.DeepEqual(got.Output, res.Output) {
		t.Fatalf("%v at H=%v: AnalyzeMACDelay reads chi = %v, output %v; AnalyzeMAC %v, %v", in, p.H, got.Delay, got.Output, res.Delay, res.Output)
	}
	if !math.IsNaN(got.BusyInterval) && got.BusyInterval != res.BusyInterval {
		t.Fatalf("%v at H=%v: AnalyzeMACDelay reads B = %v, AnalyzeMAC %v", in, p.H, got.BusyInterval, res.BusyInterval)
	}
	_, busyEvals, _ := busyEnd(in, p)
	_, _, scanEvals := scanMAC(in, p, res.BusyInterval, false)
	if eager := busyEvals + scanEvals; evals > uint64(eager) {
		t.Fatalf("%v at H=%v: AnalyzeMACDelay spends %d envelope evaluations, the eager delay-only scan %d", in, p.H, evals, eager)
	}
}

// errClass is the analysis failure an error reports: one of the package's
// sentinel errors, nil for none, or the error itself for any other.
func errClass(err error) error {
	for _, class := range []error{ErrOverload, ErrBufferOverflow, ErrNoConvergence} {
		if errors.Is(err, class) {
			return class
		}
	}
	return err
}
