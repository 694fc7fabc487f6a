package fddi

import (
	"fmt"
	"math"
	"testing"

	"fafnet/internal/atm"
	"fafnet/internal/shaper"
	"fafnet/internal/traffic"
)

// segmentEnds returns the breakpoints of d lowered over (0, horizon] — d's
// own when d is a flat whose window covers the horizon — and the horizon: the
// points where a walk over the segments reads the envelope.
func segmentEnds(d traffic.Descriptor, horizon float64) []float64 {
	f := traffic.Flatten(d, horizon)
	if f == nil {
		return []float64{horizon}
	}
	pts := make([]float64, 0, f.Segments()+1)
	for i := 1; i < f.Segments(); i++ {
		if t, _ := f.Vertex(i); t <= horizon {
			pts = append(pts, t)
		}
	}
	return append(pts, horizon)
}

// sample returns the maximum of expr over (0, busy], read at n uniform
// points and at the ulp-neighbours of every point in extra.
func sample(expr func(t float64) float64, busy float64, n int, extra []float64) float64 {
	best := math.Inf(-1)
	visit := func(t float64) {
		if t > 0 && t <= busy {
			best = max(best, expr(t))
		}
	}
	for i := 1; i <= n; i++ {
		visit(busy * float64(i) / float64(n))
	}
	var pts []float64
	for _, x := range extra {
		for _, t := range ulpNeighbours(pts[:0], x) {
			visit(t)
		}
	}
	return best
}

// checkPortBound holds the FIFO-port analysis of agg at capacity to a sample
// of its own expression, A(t) − C·t over the busy period, with n uniform
// points: the backlog is at or above it, to four ulps of A — a busy period
// past agg's window is walked on a fresh lowering, whose sums associate
// differently from agg's members. ok is false when the analysis finds no
// finite bound.
func checkPortBound(t *testing.T, agg traffic.Descriptor, capacity float64, n int) (res atm.MuxResult, want float64, ok bool) {
	t.Helper()
	res, err := atm.AnalyzeAggregate(agg, atm.MuxParams{CapacityBps: capacity}, atm.MuxOptions{})
	if err != nil {
		return res, 0, false
	}
	backlog := func(t float64) float64 { return agg.Bits(t) - capacity*t }
	want = max(0, sample(backlog, res.BusyPeriod, n, segmentEnds(agg, res.BusyPeriod)))
	if res.BacklogBits < want-4*ulp(agg.Bits(res.BusyPeriod)) {
		t.Errorf("%v at C=%v: backlog %v below its sample %v (busy period %v s)", agg, capacity, res.BacklogBits, want, res.BusyPeriod)
	}
	return res, want, true
}

// checkShaperBound holds the regulator analysis of in under spec to a sample
// of its own expression, (A(t) − σ)/ρ − t over the bucket's busy period.
func checkShaperBound(t *testing.T, in traffic.Descriptor, spec shaper.Spec) {
	t.Helper()
	res, err := shaper.Analyze(in, spec)
	if err != nil {
		return
	}
	busy, _, ok := traffic.Backlog(in, spec.RhoBps, 16e-3, 8)
	if !ok {
		t.Fatalf("%v: the regulator analysis answered, the bucket's busy period has no end", in)
	}
	lag := func(t float64) float64 { return (in.Bits(t)-spec.SigmaBits)/spec.RhoBps - t }
	// The analysis reads the lag as (max(A − ρ·t) − σ)/ρ, the sample as
	// (A − σ)/ρ − t: the two roundings differ by ulps of t.
	if want := sample(lag, busy, 2000, segmentEnds(in, busy)); res.Delay < want-4*ulp(busy) {
		t.Errorf("%v under %+v: lag %v below its sample %v", in, spec, res.Delay, want)
	}
}

// ulp returns the spacing of the floats at x.
func ulp(x float64) float64 { return math.Nextafter(x, math.Inf(1)) - x }

// portWitness is the port input of the witnesses: n copies of the paper's
// source behind an 8 ms delay capped at the ring rate and a 384 → 424-bit
// cell quantization, as a chain.
func portWitness(t *testing.T, n int) traffic.Descriptor {
	t.Helper()
	src, err := traffic.NewDualPeriodic(50e3, 10e-3, 10e3, 1e-3, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	member := traffic.Quantized{Inner: traffic.Delayed{Inner: src, Delay: 8e-3, CapBps: 100e6}, QuantumBits: 384, OutBits: 424}
	members := make([]traffic.Descriptor, n)
	for i := range members {
		members[i] = member
	}
	return traffic.NewAggregate(members...)
}

// TestServerBoundWitnesses pins the cases on which a sampled maximum read
// below its own supremum. Theorem 1 on deepInput at 1.02·h_min and 1.1·h_min:
// χ at or above its float-resolution reference, within 1e-9 s of it, and
// reading 29.4600 ms and 28.4200 ms where a candidate grid read 29.4000 ms
// and 28.4000 ms. The FIFO port fed by 1, 4 and 8 copies of the paper's
// source (portWitness) at C = 1.2ρ, 2ρ and 5ρ: the backlog at or above a
// 2·10⁶-point sample of ΣA(t) − C·t over the busy period, with no ulps to
// spare.
func TestServerBoundWitnesses(t *testing.T) {
	chain, flat, deep := deepInput(t)
	ring := deep.Ring
	hMin := chain.LongTermRate() * ring.TTRT / ring.BandwidthBps
	for _, w := range []struct {
		h, readsMs float64
	}{{1.02, 29.4600}, {1.1, 28.4200}} {
		for _, in := range []traffic.Descriptor{chain, flat} {
			t.Run(fmt.Sprintf("mac/%v/%T", w.h, in), func(t *testing.T) {
				res, ref := checkMACBounds(t, in, MACParams{Ring: ring, H: w.h * hMin})
				if res.Delay-ref > 1e-9 {
					t.Errorf("chi = %v, %v above its float-resolution reference %v", res.Delay, res.Delay-ref, ref)
				}
				if got := math.Round(res.Delay*1e7) / 1e4; got != w.readsMs {
					t.Errorf("chi = %v s reads %.4f ms, want %.4f ms", res.Delay, got, w.readsMs)
				}
			})
		}
	}
	if testing.Short() {
		t.Skip("the port witnesses sample 2·10⁶ points each")
	}
	for _, n := range []int{1, 4, 8} {
		agg := portWitness(t, n)
		for _, k := range []float64{1.2, 2, 5} {
			t.Run(fmt.Sprintf("port/%d/%v", n, k), func(t *testing.T) {
				res, want, ok := checkPortBound(t, agg, k*agg.LongTermRate(), 2_000_000)
				if !ok {
					t.Fatal("no finite port bound")
				}
				if res.BacklogBits < want {
					t.Errorf("backlog %v below its sample %v", res.BacklogBits, want)
				}
				t.Logf("busy period %v s, backlog %v bits, sample %v bits", res.BusyPeriod, res.BacklogBits, want)
			})
		}
	}
}

// FuzzServerBounds holds the extremum of every server the analysis runs to a
// dense sample of its own expression: χ and F of Theorem 1 (checkMACBounds),
// the backlog of a FIFO port (checkPortBound) and the lag of a (σ, ρ)
// regulator (checkShaperBound), each at or above its sample. The samples
// take uniform points and the ulp-neighbours of every level crossing, every
// multiple of TTRT and every segment end of the input lowered over the
// interval read. Inputs are FuzzDelayBound's: sources of every model through
// chains of the analysis's transforms, raw and lowered. The port carries one
// to eight copies of the input behind a 384 → 424-bit cell quantization, as a
// chain or as the workspace sum of its lowered copies, at a capacity from a
// hair above their rate to eight times it; the regulator's rate spans the
// same range over the input's.
func FuzzServerBounds(f *testing.F) {
	f.Add(uint8(1), uint8(0), false, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, uint8(3), 0.5, 0.5)
	f.Add(uint8(0), uint8(0b100110), true, 0.1, 0.9, 0.1, 0.2, 0.45, 0.001, uint8(0), 0.1, 0.9)
	f.Add(uint8(2), uint8(0b01), false, 0.99, 0.5, 0.1, 0.9, 0.2, 0.0, uint8(7), 0.9, 0.2)
	f.Add(uint8(1), uint8(0b0101), true, 0.3, 0.2, 0.8, 0.6, 0.7, 0.01, uint8(4), 0.05, 0.05)
	f.Fuzz(func(t *testing.T, kind, chain uint8, lowered bool, a, b, c, d, e, h float64, copies uint8, rate, sigma float64) {
		src := fuzzSource(kind, a, b, c, d)
		if src == nil {
			return
		}
		in := fuzzChain(src, chain, e)
		if in == nil {
			return
		}
		if lowered {
			flat := traffic.Flatten(traffic.Fuse(in), 0.025)
			if flat == nil {
				return
			}
			in = flat
		}
		rho := in.LongTermRate()
		if !(rho > 0) {
			return
		}

		ring := testRing()
		p := MACParams{Ring: ring, H: rho * ring.TTRT / ring.BandwidthBps * (1 + logSpan(h, 1e-3, 5))}
		if _, err := AnalyzeMAC(in, p, Options{}); err == nil {
			checkMACBounds(t, in, p)
		}

		cell, err := traffic.NewQuantized(in, 384, 424)
		if err != nil {
			t.Fatal(err)
		}
		members := make([]traffic.Descriptor, 1+int(copies%8))
		flats := make([]*traffic.Flat, len(members))
		for i := range members {
			members[i] = cell
			flats[i] = traffic.Flatten(cell, 0.025)
		}
		var agg traffic.Descriptor = traffic.NewAggregate(members...)
		if lowered && flats[0] != nil {
			agg = new(traffic.Workspace).Sum(flats)
		}
		checkPortBound(t, agg, agg.LongTermRate()*logSpan(rate, 1.05, 8), 4000)

		spec := shaper.Spec{SigmaBits: logSpan(sigma, 1e3, 1e6), RhoBps: rho * logSpan(rate*3, 1.05, 8)}
		checkShaperBound(t, in, spec)
	})
}
