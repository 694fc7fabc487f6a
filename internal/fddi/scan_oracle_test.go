package fddi

import (
	"fmt"
	"math"
	"testing"

	"fafnet/internal/traffic"
	"fafnet/internal/units"
)

// firstAbove returns the first float t in (0, hi] with A(t) > y, for A(hi) > y,
// by bisection on the floats' bit patterns — which order positive floats as
// their values do — so it resolves to the float in 64 steps wherever it lies.
// On an envelope that is not nondecreasing it returns some float at which A
// steps above y from at most y.
func firstAbove(in traffic.Descriptor, y, hi float64) float64 {
	lo, up := uint64(0), math.Float64bits(hi) // A(lo) <= y < A(up), as floats
	for up-lo > 1 {
		mid := lo + (up-lo)/2
		if in.Bits(math.Float64frombits(mid)) > y {
			up = mid
		} else {
			lo = mid
		}
	}
	return math.Float64frombits(up)
}

// referenceChi is Eq. 11 read at float resolution. The scan's expression
// m(t)·TTRT − t, m(t) = CeilDiv(A(t), svc) + 1 where A(t) > Eps, steps to
// m = k + 1 where A first exceeds the level (k−1)·svc, or just past it where
// CeilDiv's snap holds the quotient on the lower step: for every level k with
// A(busy) above it, the reference finds the first float past which A exceeds
// the level, and the first past which it exceeds the snapped level
// (k−1)·svc + RelTol·max(1, k−1)·svc, and reads the expression at both and at
// their ulp-neighbours. On a nondecreasing envelope each value of m has its
// largest candidate at its first float, so the maximum is the supremum over
// the floats of (0, busy]. It returns the crossings too, for the samples to
// probe around.
func referenceChi(in traffic.Descriptor, p MACParams, busy float64) (chi float64, crossings []float64) {
	svc := p.RotationServiceBits()
	top := in.Bits(busy)
	for k := 1.0; (k-1)*svc < top; k++ {
		y := (k - 1) * svc
		for _, level := range []float64{max(y, units.Eps), y + units.RelTol*max(1, k-1)*svc} {
			if level < top {
				crossings = append(crossings, firstAbove(in, level, busy))
			}
		}
	}
	_, chi = macSample(in, p, busy, 0, crossings)
	return chi, crossings
}

// ulpNeighbours appends p and the floats up to two ulps to either side of it.
func ulpNeighbours(dst []float64, p float64) []float64 {
	lo, hi := p, p
	dst = append(dst, p)
	for i := 0; i < 2; i++ {
		lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
		dst = append(dst, lo, hi)
	}
	return dst
}

// macSample is Theorem 1's two expressions sampled on (0, busy]: F's
// A(t) − avail(t) and χ's m(t)·TTRT − t, m(t) = ⌈A(t)/svc⌉ + 1 where
// A(t) > Eps, at n uniform points and at the ulp-neighbours of every point in
// extra.
func macSample(in traffic.Descriptor, p MACParams, busy float64, n int, extra []float64) (backlog, delay float64) {
	svc, ttrt := p.RotationServiceBits(), p.Ring.TTRT
	visit := func(t float64) {
		if !(t > 0 && t <= busy) {
			return
		}
		a := in.Bits(t)
		backlog = max(backlog, a-p.Avail(t))
		if a > units.Eps {
			delay = max(delay, (units.CeilDiv(a, svc)+1)*ttrt-t)
		}
	}
	for i := 1; i <= n; i++ {
		visit(busy * float64(i) / float64(n))
	}
	var pts []float64
	for _, x := range extra {
		pts = ulpNeighbours(pts[:0], x)
		for _, t := range pts {
			visit(t)
		}
	}
	return backlog, delay
}

// checkMACBounds runs AnalyzeMAC on in at p and holds χ and F to a dense
// sample of their own expressions — 4,000 uniform points over the busy
// interval and the ulp-neighbours of every level crossing, every multiple of
// TTRT and, on a flat, every segment end — and χ to referenceChi: at or above
// both. It returns the result and the reference, for callers that also want
// the bound tight.
func checkMACBounds(t *testing.T, in traffic.Descriptor, p MACParams) (MACResult, float64) {
	t.Helper()
	res, err := AnalyzeMAC(in, p, Options{})
	if err != nil {
		t.Fatalf("%v at H=%v: %v", in, p.H, err)
	}
	busy := res.BusyInterval
	ref, extra := referenceChi(in, p, busy)
	for k := 1.0; k*p.Ring.TTRT <= busy; k++ {
		extra = append(extra, k*p.Ring.TTRT)
	}
	if f, ok := in.(*traffic.Flat); ok {
		for i := 1; i < f.Segments(); i++ {
			if ti, _ := f.Vertex(i); ti <= busy {
				extra = append(extra, ti)
			}
		}
		extra = append(extra, f.Horizon())
	}
	wantF, wantChi := macSample(in, p, busy, 4000, extra)
	if res.Delay < wantChi || res.Delay < ref {
		t.Errorf("%v at H=%v: chi = %v below its sample %v or its reference %v", in, p.H, res.Delay, wantChi, ref)
	}
	if res.BufferBits < wantF {
		t.Errorf("%v at H=%v: F = %v below its sample %v", in, p.H, res.BufferBits, wantF)
	}
	return res, ref
}

// TestScanMACMatchesExhaustiveScan holds the level and rotation searches to
// the exhaustive sample of their expressions (checkMACBounds), on the chain
// and on its lowered form, from a shallow busy interval to one of more than
// 500 rotations with the allocation within 0.5 % of the stability limit: χ at
// or above its float-resolution reference and within 1e-9 s of it, F at or
// above its sample and within RelTol of it. The search without the backlog
// (what a caller that reads no F runs) gives the same χ, bit for bit, and no
// F; the buffer-bounded case holds AnalyzeMACDelay to AnalyzeMAC. maxEvals
// pins the envelope evaluations each case spends, chain and flat.
func TestScanMACMatchesExhaustiveScan(t *testing.T) {
	chain, flat, deep := deepInput(t)
	ring := deep.Ring
	hMin := chain.LongTermRate() * ring.TTRT / ring.BandwidthBps
	lined := []traffic.Descriptor{chain, flat}
	noline := withoutBurstRule(t, chain)
	cases := []struct {
		name     string
		in       []traffic.Descriptor
		h        float64
		buffer   float64
		minRot   float64
		maxEvals [2]int // chain, flat
	}{
		{"shallow", lined, 2e-3, 0, 0, [2]int{100, 100}},
		{"first", lined, 1.2 * hMin, 0, 10, [2]int{200, 200}},
		{"mid", lined, 1.1 * hMin, 0, 20, [2]int{400, 400}},
		{"deep", lined, 1.02 * hMin, 0, 100, [2]int{900, 900}},
		{"deepest", lined, 1.004 * hMin, 0, 500, [2]int{2700, 2700}},
		{"noline", []traffic.Descriptor{noline}, 1.5 * hMin, 0, 5, [2]int{200}},
		{"buffered", lined, 1.02 * hMin, 1e9, 100, [2]int{900, 900}},
	}
	for _, c := range cases {
		for k, in := range c.in {
			t.Run(fmt.Sprintf("%s/%T", c.name, in), func(t *testing.T) {
				p := MACParams{Ring: ring, H: c.h, BufferBits: c.buffer}
				res, ref := checkMACBounds(t, in, p)
				if res.BusyInterval < c.minRot*ring.TTRT {
					t.Fatalf("busy interval of %v rotations, want at least %v: the case exercises nothing", res.BusyInterval/ring.TTRT, c.minRot)
				}
				if res.Delay-ref > 1e-9 {
					t.Errorf("chi = %v, %v above its float-resolution reference %v", res.Delay, res.Delay-ref, ref)
				}
				wantF := macSampleAtRotations(in, p, res.BusyInterval)
				if !units.WithinRel(res.BufferBits, wantF, units.RelTol) {
					t.Errorf("F = %v, its supremum over the rotations' last points %v", res.BufferBits, wantF)
				}
				noF, chi, evals := scanMAC(in, p, res.BusyInterval, false)
				if math.Float64bits(chi) != math.Float64bits(res.Delay) || !math.IsNaN(noF) {
					t.Errorf("delay-only search: chi = %v, F = %v; with the backlog chi = %v", chi, noF, res.Delay)
				}
				if c.buffer > 0 {
					got, err := AnalyzeMACDelay(in, p, Options{})
					if err != nil {
						t.Fatal(err)
					}
					if got.BufferBits != res.BufferBits || got.Delay != res.Delay {
						t.Errorf("AnalyzeMACDelay with a buffer: F = %v, chi = %v; AnalyzeMAC %v, %v", got.BufferBits, got.Delay, res.BufferBits, res.Delay)
					}
				}
				t.Logf("busy %.0f rotations, chi %v (reference %v), F %v, %d evaluations delay-only", res.BusyInterval/ring.TTRT, res.Delay, ref, res.BufferBits, evals)
				if evals > c.maxEvals[k] {
					t.Errorf("%d envelope evaluations, want at most %d", evals, c.maxEvals[k])
				}
			})
		}
	}
}

// macSampleAtRotations reads F's expression within two ulps of every multiple
// of TTRT inside (0, busy] and at busy, which holds the last float of every
// rotation: the supremum over all floats of the interval on a nondecreasing
// envelope.
func macSampleAtRotations(in traffic.Descriptor, p MACParams, busy float64) float64 {
	var pts []float64
	for k := 1.0; k*p.Ring.TTRT <= busy; k++ {
		pts = ulpNeighbours(pts, k*p.Ring.TTRT)
	}
	pts = append(pts, busy)
	var f float64
	for _, t := range pts {
		if t > 0 && t <= busy {
			f = max(f, in.Bits(t)-p.Avail(t))
		}
	}
	return f
}

// noBurstRule is a descriptor type from outside package traffic, so
// traffic.BurstBound has no rule for it and no line stops its searches. It
// evaluates as the descriptor it wraps.
type noBurstRule struct{ traffic.Descriptor }

// withoutBurstRule wraps in as a noBurstRule and checks that its padded σ is
// +Inf, which is what the no-line cases exercise.
func withoutBurstRule(t *testing.T, in traffic.Descriptor) traffic.Descriptor {
	t.Helper()
	d := noBurstRule{in}
	if sigma, _ := paddedLine(d); !math.IsInf(sigma, 1) {
		t.Fatalf("a descriptor without a burst rule has the burst bound %v: the case exercises nothing", sigma)
	}
	return d
}
