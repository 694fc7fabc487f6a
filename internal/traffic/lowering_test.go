package traffic

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// stage0Chain is the analyzer's stage-0 chain over the source flat src: the
// sender MAC's output Delayed{src, chi, ringBps}, behind the regulator's Min
// when shaped (a bucket and the regulator's delay reg, as shaper.Analyze
// builds them), converted to cells.
func stage0Chain(t *testing.T, src *Flat, chi, reg float64, shaped bool) Descriptor {
	t.Helper()
	const ringBps = 100e6
	var pre Descriptor = Delayed{Inner: src, Delay: chi, CapBps: ringBps}
	if shaped {
		lb, err := NewLeakyBucket(40e3, 1.2*src.LongTermRate()+1e5, 0)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMin(lb, Delayed{Inner: pre, Delay: reg})
		if err != nil {
			t.Fatal(err)
		}
		pre = m
	}
	q, err := NewQuantized(pre, 36000, 94*384)
	if err != nil {
		t.Fatal(err)
	}
	return FuseRoot(q)
}

// TestLowerReadsTheLongLowering is the property the analyzer's stage-0
// envelopes stand on: Workspace.Lower of the stage-0 chain, reading the
// source off one Lowering that grows as larger sender-side delays arrive,
// equals Flatten of the same chain — which lowers the source afresh over the
// window plus the delay — array for array, for the four source models, plain
// and behind a regulator. The delays are drawn at random, in random order,
// and also placed so that the window plus the delay lands exactly on a
// vertex of the source, where the lowering over that window ends on a vertex
// the next vertex has not settled.
func TestLowerReadsTheLongLowering(t *testing.T) {
	const horizon = 0.025
	mk := func(d Descriptor, err error) Descriptor {
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	sources := map[string]Descriptor{
		"cbr":          mk(NewCBR(4e6)),
		"leakyBucket":  mk(NewLeakyBucket(8e4, 3e6, 4e7)),
		"deepBucket":   mk(NewLeakyBucket(2e6, 3e6, 4e7)),
		"periodic":     mk(NewPeriodic(48e3, 8e-3, 100e6)),
		"shortPeriod":  mk(NewPeriodic(3e3, 3e-4, 100e6)),
		"dualPeriodic": mk(NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)),
		"dualTight":    mk(NewDualPeriodic(70e3, 0.007, 9e3, 0.0009, 100e6)),
	}
	rng := rand.New(rand.NewSource(11))
	for name, s := range sources {
		src := Flatten(s, horizon)
		// χ that put horizon + χ exactly on a vertex of the source.
		var onVertex []float64
		far := Flatten(s, 4*horizon)
		for i := 0; i < far.Segments(); i++ {
			tv, _ := far.Vertex(i)
			chi := tv - horizon
			if chi <= 0 {
				continue
			}
			for _, c := range []float64{chi, math.Nextafter(chi, 0), math.Nextafter(chi, 1)} {
				if horizon+c == tv {
					onVertex = append(onVertex, c)
					break
				}
			}
		}
		if len(onVertex) == 0 && name != "cbr" && name != "leakyBucket" {
			t.Fatalf("%s: no delay lands the window on a vertex", name)
		}
		for _, shaped := range []bool{false, true} {
			var long Lowering
			var ws Workspace
			chis := append([]float64(nil), onVertex...)
			for i := 0; i < 60; i++ {
				chis = append(chis, 3*horizon*rng.Float64()*rng.Float64())
			}
			rng.Shuffle(len(chis), func(i, j int) { chis[i], chis[j] = chis[j], chis[i] })
			for _, chi := range chis {
				reg := 0.0
				if shaped {
					reg = 2e-3 * rng.Float64()
				}
				d := stage0Chain(t, src, chi, reg, shaped)
				want := Flatten(d, horizon)
				got := ws.Lower(d, horizon, src, &long)
				if (got == nil) != (want == nil) {
					t.Fatalf("%s (shaped %v), χ=%v: Lower gives %v, Flatten %v", name, shaped, chi, got, want)
				}
				if got == nil {
					continue
				}
				if !sameArrays(got, want, -1, true) || got.Horizon() != want.Horizon() || !reflect.DeepEqual(got.Tail(), want.Tail()) {
					t.Fatalf("%s (shaped %v), χ=%v: Lower\n%v %v %v\nFlatten\n%v %v %v", name, shaped, chi, got.ts, got.vs, got.ss, want.ts, want.vs, want.ss)
				}
			}
			if long.flat == nil {
				t.Fatalf("%s (shaped %v): the long lowering was never filled", name, shaped)
			}
			if long.limit <= long.window {
				t.Errorf("%s (shaped %v): the long lowering refuses windows from %v", name, shaped, long.limit)
			}
		}
	}
}

// TestLoweringPrefixIsTheShortLowering holds the long lowering's prefix to
// Flatten over the shorter window directly, for windows on and beside every
// vertex of the source: the vertices whose gate is inside the window, the
// last with the slope it was written with.
func TestLoweringPrefixIsTheShortLowering(t *testing.T) {
	mk := func(d Descriptor, err error) Descriptor {
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	for _, s := range []Descriptor{
		mk(NewCBR(4e6)),
		mk(NewLeakyBucket(8e4, 3e6, 4e7)),
		mk(NewLeakyBucket(8e4, 3e6, 0)),
		mk(NewPeriodic(48e3, 8e-3, 100e6)),
		mk(NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)),
		mk(NewDualPeriodic(15e3, 0.010, 10e3, 0.001, 100e6)),
	} {
		var long Lowering
		if !long.covers(s, 0.1) {
			t.Fatalf("%v: the long lowering refuses its own window", s)
		}
		var windows []float64
		for i := 0; i < long.flat.Segments(); i++ {
			tv, _ := long.flat.Vertex(i)
			windows = append(windows, tv, math.Nextafter(tv, 0), math.Nextafter(tv, 1))
		}
		for _, h := range windows {
			if !(h > 0) || h > 0.1 {
				continue
			}
			if !long.covers(s, h) {
				t.Fatalf("%v: the long lowering refuses the window %v", s, h)
			}
			got := long.prefix(&flatBuilder{}, h)
			want := Flatten(s, h)
			if !sameArrays(got, want, -1, true) || got.Horizon() != want.Horizon() {
				t.Fatalf("%v over %v: prefix\n%v %v %v\nFlatten\n%v %v %v", s, h, got.ts, got.vs, got.ss, want.ts, want.vs, want.ss)
			}
		}
	}
}

// TestLoweringRefusesWhatItCannotServe: a window past a step whose gate lies
// below an earlier one's, or past a step that rewrote a vertex an earlier
// gate wrote, is refused rather than served from a prefix that differs; a
// source without a model rule is never served.
func TestLoweringRefusesWhatItCannotServe(t *testing.T) {
	var l Lowering
	b := flatBuilder{rec: &l}
	l.limit = math.Inf(1)
	b.gate = 0
	b.add(0, 0, 1)
	b.gate = 2
	b.add(2, 2, 0)
	b.gate = 3
	b.add(2, 3, 0) // rewrites the vertex gate 2 wrote
	if l.limit != 2 {
		t.Errorf("after a rewrite under a later gate the limit is %v, want 2", l.limit)
	}
	b.gate = 1.5
	b.add(4, 3, 0) // a gate below the last one
	if l.limit != 1.5 {
		t.Errorf("after a falling gate the limit is %v, want 1.5", l.limit)
	}
	var none Lowering
	if none.covers(NewAggregate(CBR{RateBps: 1e6}), 0.01) {
		t.Error("a lowering of an aggregate serves windows")
	}
}
