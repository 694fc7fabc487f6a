package core

import (
	"math"
	"testing"

	"fafnet/internal/topo"
)

// TestWarmProbeEvaluationAllocationFree pins the probe session's warm reset
// path: after the first probe has built the scratch evaluation, preparing
// the next probe (revalidating the allocation, clearing the memo maps, and
// re-seeding the probe-invariant results) must not allocate — including
// map re-seeding outgrowing the buckets retained by clear().
func TestWarmProbeEvaluationAllocationFree(t *testing.T) {
	ctl := loadedController(t)
	existing := ctl.Connections()
	cand := testConnOn(t, ctl.Network(), "probe", 0, 0, 1, 0, 0, 0)
	s, err := analyzerOf(ctl).NewProbeSession(existing, cand)
	if err != nil {
		t.Fatal(err)
	}
	// First probe: allocates the scratch evaluation and warms every memo.
	if _, err := s.Delays(1e-3, 1.4e-3); err != nil {
		t.Fatal(err)
	}

	var evalErr error
	if n := testing.AllocsPerRun(100, func() {
		if _, err := s.evaluation(1e-3, 1.4e-3); err != nil {
			evalErr = err
		}
	}); n != 0 {
		t.Errorf("warm probe evaluation reset: %v allocs per run, want 0", n)
	}
	if evalErr != nil {
		t.Fatal(evalErr)
	}
}

// twoPortConns returns, on a network of one backbone switch (every remote
// route crosses two ports: its ring's uplink, then the switch's downlink to
// the destination ring), three connections into ring 1 and one out of it,
// at allocations scaled by x: the downlink to ring 1 carries members whose
// envelopes come through three uplinks, so its analysis runs theirs first.
func twoPortConns(t *testing.T, x float64) (*topo.Network, []*Connection) {
	t.Helper()
	cfg := topo.Default()
	cfg.NumSwitches = 1
	net, err := topo.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var conns []*Connection
	for i, r := range [][4]int{{0, 0, 1, 0}, {2, 0, 1, 1}, {0, 1, 1, 2}, {1, 3, 2, 3}} {
		c := testConnOn(t, net, fmtID("p", i), r[0], r[1], r[2], r[3], x*(1.0+0.1*float64(i))*1e-3, x*1.4e-3)
		if len(c.Route.Ports) != 2 {
			t.Fatalf("route %v crosses %d ports, want 2", c.Route, len(c.Route.Ports))
		}
		conns = append(conns, c)
	}
	return net, conns
}

// TestNestedPortMembersStack: the port analyses gather their members on the
// analyzer's one stack, and a member's fold analyses its uplink in the middle
// of the downlink's gathering. At each allocation, a fresh analyzer and one
// carried across allocations give, bit for bit, the delays of a fresh
// evaluation that analyses every uplink before any downlink — where no
// gathering nests in another; and a warm downlink analysis, every member
// memoized, gathers them without allocating.
func TestNestedPortMembersStack(t *testing.T) {
	net, _ := twoPortConns(t, 1)
	warm, err := NewAnalyzer(net, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{1, 1.3, 0.9, 1.3, 2} {
		_, conns := twoPortConns(t, x)
		flat, err := NewAnalyzer(net, AnalysisOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ev, err := flat.newEvaluation(conns)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range conns {
			if _, err := ev.muxDelay(c.Route.PortIndex[0]); err != nil {
				t.Fatal(err)
			}
		}
		want, err := ev.delays()
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewAnalyzer(net, AnalysisOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, an := range []*Analyzer{fresh, warm} {
			got, err := an.Delays(conns)
			if err != nil {
				t.Fatal(err)
			}
			for id, d := range want {
				if math.Float64bits(got[id]) != math.Float64bits(d) {
					t.Fatalf("x=%v, %s: the analyzer reads %v, the evaluation without nesting %v", x, id, got[id], d)
				}
				if math.IsInf(d, 1) {
					t.Fatalf("x=%v, %s: no finite bound", x, id)
				}
			}
			if len(an.members) != 0 {
				t.Fatalf("x=%v: %d members left on the stack", x, len(an.members))
			}
		}
	}

	_, conns := twoPortConns(t, 1)
	ev, err := warm.newEvaluation(conns)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.delays(); err != nil {
		t.Fatal(err)
	}
	down := conns[0].Route.PortIndex[1]
	var muxErr error
	if n := testing.AllocsPerRun(100, func() {
		ev.portDelay[down] = math.NaN()
		if _, err := ev.muxDelay(down); err != nil {
			muxErr = err
		}
	}); n != 0 {
		t.Errorf("warm downlink analysis: %v allocs per run, want 0", n)
	}
	if muxErr != nil {
		t.Fatal(muxErr)
	}
}

// maxColdDecisionAllocs pins what one cold decision allocates
// (TestColdDecisionAllocations): 617, the count measured once the receiver
// MAC stopped building an output envelope nothing reads (638 before; 744
// before a port's output became a view that copies nothing and a class's
// source was lowered once for every stage-0 envelope; 762 while the
// analyzer kept port verdicts across evaluations; 806 when the probe's
// bookkeeping became dense), plus 10 %. A cold decision also grows the
// workspace's readers and scratch flats, which a warm one reuses.
const maxColdDecisionAllocs = 678

// TestColdDecisionAllocations pins the allocations of one whole decision,
// so that a regression in the probe path fails here rather than in the
// benchmark: decideAgainst on a fresh analyzer, every analysis a first
// contact, a full bisection over five standing connections of the default
// network.
func TestColdDecisionAllocations(t *testing.T) {
	// The standing set takes its minimum allocations, leaving the candidate
	// room for a whole segment.
	ctl := newController(t, Options{Beta: 0, BetaSet: true})
	for i, pair := range [][4]int{{0, 0, 1, 0}, {0, 1, 2, 1}, {1, 0, 2, 0}, {1, 1, 0, 2}, {2, 0, 0, 3}} {
		spec := testSpec(t, fmtID("bg", i), pair[0], pair[1], pair[2], pair[3])
		spec.Deadline = 0.100
		if dec, err := ctl.RequestAdmission(spec); err != nil || !dec.Admitted {
			t.Fatalf("background admission %d: %v %v", i, err, dec.Reason)
		}
	}
	snap := ctl.snap.Load()
	spec := testSpec(t, "cand", 2, 1, 1, 2)
	spec.Deadline = 0.100
	route, err := ctl.Network().Route(spec.Src, spec.Dst)
	if err != nil {
		t.Fatal(err)
	}
	dec, reject, err := preflight(snap, ctl.opts, spec, route)
	if err != nil || reject {
		t.Fatalf("preflight: %v, rejected %v", err, reject)
	}
	var got Decision
	allocs := testing.AllocsPerRun(5, func() {
		an, err := NewAnalyzer(ctl.Network(), AnalysisOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got, _, err = decideAgainst(an, ctl.opts, snap.conns, dec, spec, route); err != nil {
			t.Fatal(err)
		}
	})
	if !got.Admitted || got.Probes < 2*ctl.opts.SearchIters {
		t.Fatalf("the decision admits %v after %d probes: no full bisection is measured", got.Admitted, got.Probes)
	}
	t.Logf("%v allocations over %d probes", allocs, got.Probes)
	if allocs > maxColdDecisionAllocs {
		t.Errorf("a cold decision allocates %v times, want at most %d", allocs, maxColdDecisionAllocs)
	}
}
