package core

import (
	"errors"
	"math"
	"testing"

	"fafnet/internal/fddi"
	"fafnet/internal/shaper"
	"fafnet/internal/topo"
	"fafnet/internal/traffic"
	"fafnet/internal/units"
)

// TestReceiverPrecheckMatchesWalk: on a loaded controller, at every point of
// the bisection's lattice on the allocation segments of three candidates (one
// of them shaped), the rate the probe session's precheck computes is, bit for
// bit, the rate Theorem 1's stability test reads at the receiver MAC wherever
// the walk reaches that MAC, the precheck's overload verdict is that test's,
// and a probe the precheck refuses is one the full evaluation refuses too.
// Every sixteenth point, and every refused one, the verdict-only probe is held
// to the full evaluation's.
func TestReceiverPrecheckMatchesWalk(t *testing.T) {
	ctl := loadedController(t)
	net := ctl.Network()
	opts := Options{}.withDefaults()
	existing := ctl.Connections()
	shaped := testConnOn(t, net, "shaped", 2, 3, 0, 3, 0, 0)
	shaped.Shape = &shaper.Spec{SigmaBits: 40e3, RhoBps: 18e6}
	steps := 1 << opts.SearchIters
	for _, cand := range []*Connection{
		testConnOn(t, net, "a", 0, 0, 1, 0, 0, 0),
		testConnOn(t, net, "b", 2, 1, 0, 1, 0, 0),
		shaped,
	} {
		_, hsMax := ctl.RingLedger(cand.Src.Ring)
		_, hrMax := ctl.RingLedger(cand.Dst.Ring)
		seg := searchSegment(opts, cand.Route, hsMax, hrMax)
		session := func() *ProbeSession {
			an, err := NewAnalyzer(net, AnalysisOptions{})
			if err != nil {
				t.Fatal(err)
			}
			s, err := an.NewProbeSession(existing, cand)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		s, full, only := session(), session(), session()
		cfg := net.RingConfig(cand.Dst.Ring)
		var reached, refused, both int
		for k := 0; k <= steps; k++ {
			a := seg.at(float64(k) / float64(steps))
			ev, err := s.evaluation(a.hs, a.hr)
			if err != nil {
				t.Fatal(err)
			}
			rate, over := s.rx.rate(net, s.probe), s.rxOverloaded()
			if in, _, err := ev.fold(s.probe, hops(s.probe)-1, nil, 0, needDelays); err == nil {
				reached++
				input, err := s.a.receiverInput(in, cfg, a.hr)
				if err != nil {
					t.Fatal(err)
				}
				if got := input.LongTermRate(); math.Float64bits(got) != math.Float64bits(rate) {
					t.Fatalf("%s, k=%d: the precheck's rate is %v, the receiver MAC's %v", cand.ID, k, rate, got)
				}
				p := fddi.MACParams{Ring: cfg, H: a.hr, BufferBits: cand.IDBufferBits}
				if _, err := fddi.AnalyzeMACDelay(input, p, fddi.Options{}); errors.Is(err, fddi.ErrOverload) != over {
					t.Fatalf("%s, k=%d: the precheck reads overloaded=%v, the receiver MAC %v", cand.ID, k, over, err)
				}
				if over {
					both++
				}
			}
			if over {
				refused++
			}
			if over || k%16 == 0 {
				want := fullProbe(t, full, existing, cand, a, nil, 0)
				if over && want {
					t.Fatalf("%s, k=%d: the precheck refuses a probe the full evaluation admits", cand.ID, k)
				}
				if got := only.Feasible(a.hs, a.hr); got != want {
					t.Fatalf("%s, k=%d: Feasible = %v, the full evaluation %v", cand.ID, k, got, want)
				}
			}
		}
		t.Logf("%s: %d points, the walk reached the receiver at %d, the precheck refused %d (%d of them past the sender and ports)",
			cand.ID, steps+1, reached, refused, both)
		if both == 0 || refused == steps+1 {
			t.Errorf("%s: the sweep never has the precheck refuse a probe the walk would carry to the receiver", cand.ID)
		}
	}
}

// TestEqualDelayBand: around ref/(1 − equalTolerance), for references from
// zero to a second, every delay above units.RelBand fails WithinRel — the
// band a FeasibleWithin walk stops at — and the band lies above every delay
// that passes.
func TestEqualDelayBand(t *testing.T) {
	for _, ref := range []float64{0, 1e-13, units.Eps, 3e-6, 0.0123456789, 0.035, 0.0999, 1} {
		band := units.RelBand(ref, equalTolerance)
		edge := ref / (1 - equalTolerance)
		for _, d := range []float64{
			ref, edge * (1 - 1e-9), math.Nextafter(edge, 0), edge, math.Nextafter(edge, 1),
			edge * (1 + 1e-12), edge * (1 + 1e-10), band, math.Nextafter(band, 1),
			math.Nextafter(math.Nextafter(band, 2), 2), band * (1 + 1e-15), band * 2, ref + units.Eps,
			math.Nextafter(ref+units.Eps, 1), 1e3,
		} {
			within := units.WithinRel(d, ref, equalTolerance)
			if d > band && within {
				t.Errorf("ref %v: d = %v lies above the band %v and agrees with it", ref, d, band)
			}
			if within && !(d <= band) {
				t.Errorf("ref %v: d = %v agrees with it and the band %v is below", ref, d, band)
			}
		}
		if !units.WithinRel(edge*(1-1e-9), ref, equalTolerance) {
			t.Errorf("ref %v: the band's edge %v does not agree with it", ref, edge)
		}
	}
	if b := units.RelBand(1, 0.6); !math.IsInf(b, 1) {
		t.Errorf("RelBand at a tolerance of 0.6 is %v, want +Inf", b)
	}
}

// TestBisectionPathOverIslands pins the decisions' search to the bisection's
// own path. The feasible set of a segment is not an interval on its lattice:
// the frame→cell padding ratio at the sender moves the rate entering the
// receiver MAC in a sawtooth with α, so the receiver's stability edge has
// islands — feasible points below points the receiver cannot sustain. The
// case is one found by a scan of the lattice: a lone candidate whose
// bisection answers k = 455 (of 2^12) while k = 451 is feasible and
// k = 452–454 overload the receiver. decideAgainst must return the
// bisection's α_min, which a search that started from anywhere else (a warm
// bracket from an earlier decision, a scan from below) would not.
func TestBisectionPathOverIslands(t *testing.T) {
	net := defaultNet(t)
	opts := Options{}.withDefaults()
	for _, tc := range []struct {
		name                string
		c1                  float64 // the dual-periodic source's long-period budget (bits per 10 ms); C2 = C1/5 per 1 ms
		hsAvail, hrAvail    float64
		island, over, bisec int // a feasible lattice point, the overloaded points above it, the bisection's answer
	}{
		{"lone candidate, ring 0 → ring 1", 55e3, 2e-3, 1.6e-3, 451, 3, 455},
	} {
		src, err := traffic.NewDualPeriodic(tc.c1, 0.010, tc.c1/5, 0.001, 100e6)
		if err != nil {
			t.Fatal(err)
		}
		from, to := topo.HostID{Ring: 0, Index: 0}, topo.HostID{Ring: 1, Index: 0}
		route, err := net.Route(from, to)
		if err != nil {
			t.Fatal(err)
		}
		spec := ConnSpec{ID: "w", Src: from, Dst: to, Source: src, Deadline: 0.1}
		seg := searchSegment(opts, route, tc.hsAvail, tc.hrAvail)
		at := func(k int) allocation { return seg.at(float64(k) / float64(int(1)<<opts.SearchIters)) }

		an, err := NewAnalyzer(net, AnalysisOptions{})
		if err != nil {
			t.Fatal(err)
		}
		s, err := an.NewProbeSession(nil, &Connection{ConnSpec: spec, Route: route})
		if err != nil {
			t.Fatal(err)
		}
		if a := at(tc.island); !s.Feasible(a.hs, a.hr) {
			t.Fatalf("%s: k=%d is not feasible", tc.name, tc.island)
		}
		for k := tc.island + 1; k <= tc.island+tc.over; k++ {
			if a := at(k); s.Feasible(a.hs, a.hr) || !s.rxOverloaded() {
				t.Fatalf("%s: k=%d is not refused by the receiver's stability test", tc.name, k)
			}
		}

		an, err = NewAnalyzer(net, AnalysisOptions{})
		if err != nil {
			t.Fatal(err)
		}
		dec, _, err := decideAgainst(an, opts, nil, Decision{HSMaxAvail: tc.hsAvail, HRMaxAvail: tc.hrAvail}, spec, route)
		if err != nil {
			t.Fatal(err)
		}
		want := at(tc.bisec)
		if !dec.Admitted || dec.HSMinNeed != want.hs || dec.HRMinNeed != want.hr {
			t.Fatalf("%s: decision (admitted %v) H^min_need = (%v, %v), the bisection's k=%d is (%v, %v)",
				tc.name, dec.Admitted, dec.HSMinNeed, dec.HRMinNeed, tc.bisec, want.hs, want.hr)
		}
	}
}
