package core

import (
	"math"
	"testing"

	"fafnet/internal/traffic"
	"fafnet/internal/units"
)

// TestDeadlineComparedExactly: a connection whose bound exceeds its deadline
// by half the relative tolerance misses it, in meetsDeadlines and in a
// probe's verdict alike, where both once admitted a delay up to
// Deadline·(1 + RelTol); at its deadline exactly it meets it.
func TestDeadlineComparedExactly(t *testing.T) {
	net := defaultNet(t)
	a, err := NewAnalyzer(net, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cand := testConnOn(t, net, "c", 0, 0, 1, 0, 2e-3, 2e-3)
	delays, err := a.Delays([]*Connection{cand})
	if err != nil {
		t.Fatal(err)
	}
	bound := delays["c"]
	for _, c := range []struct {
		deadline float64
		meets    bool
	}{{bound / (1 + units.RelTol/2), false}, {bound, true}} {
		cand.Deadline = c.deadline
		if got := meetsDeadlines(nil, cand, delays); got != c.meets {
			t.Errorf("bound %v against deadline %v: meetsDeadlines = %v, want %v", bound, c.deadline, got, c.meets)
		}
		s, err := a.NewProbeSession(nil, cand)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Feasible(cand.HS, cand.HR); got != c.meets {
			t.Errorf("bound %v against deadline %v: Feasible = %v, want %v", bound, c.deadline, got, c.meets)
		}
	}
}

// TestProbeSessionKeepsSourceFlat: the source a session lowers to check it
// stays on the class's record and is the sender MAC's input, so a second
// session of the same class lowers nothing — its allocations are a cold
// session's less exactly one lowering.
func TestProbeSessionKeepsSourceFlat(t *testing.T) {
	net := defaultNet(t)
	a, err := NewAnalyzer(net, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cand := testConnOn(t, net, "c", 0, 0, 1, 0, 2e-3, 2e-3)
	s, err := a.NewProbeSession(nil, cand)
	if err != nil {
		t.Fatal(err)
	}
	rec := a.record(cand)
	src := rec.src
	if src == nil {
		t.Fatal("the session kept no lowered source on the class's record")
	}
	if !s.Feasible(cand.HS, cand.HR) {
		t.Fatal("the probe's allocation is infeasible: the sender MAC went unchecked")
	}
	if out, ok := rec.hops[recKey{x: math.Float64bits(cand.HS)}].mac.Output.(traffic.Delayed); !ok || out.Inner != traffic.Descriptor(src) {
		t.Errorf("the sender MAC's output is built on %v, want the record's source flat", rec.hops[recKey{x: math.Float64bits(cand.HS)}].mac.Output)
	}
	session := func() {
		if _, err := a.NewProbeSession(nil, cand); err != nil {
			t.Fatal(err)
		}
	}
	warm := testing.AllocsPerRun(20, session)
	cold := testing.AllocsPerRun(20, func() { rec.src = nil; session() })
	lowering := testing.AllocsPerRun(20, func() { traffic.Flatten(cand.Source, flatHorizon) })
	if cold-warm != lowering {
		t.Errorf("a session allocates %v times warm, %v cold; one lowering is %v", warm, cold, lowering)
	}
}

// TestProbeSessionMatchesFullEvaluation is the safety net of the probe
// optimization: for a range of candidate allocations, the session's delays
// must equal a from-scratch full-network evaluation exactly.
func TestProbeSessionMatchesFullEvaluation(t *testing.T) {
	ctl := loadedController(t)
	net := ctl.Network()
	existing := ctl.Connections()

	cand := testConnOn(t, net, "probe", 0, 0, 1, 0, 0, 0)
	session, err := analyzerOf(ctl).NewProbeSession(existing, cand)
	if err != nil {
		t.Fatal(err)
	}

	reference, err := NewAnalyzer(net, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, alloc := range [][2]float64{
		{0.3e-3, 0.3e-3}, // below stability: infinite
		{0.6e-3, 0.6e-3},
		{1e-3, 1.4e-3},
		{2.5e-3, 2.5e-3},
	} {
		got, err := session.Delays(alloc[0], alloc[1])
		if err != nil {
			t.Fatal(err)
		}
		probe := cand.clone()
		probe.HS, probe.HR = alloc[0], alloc[1]
		want, err := reference.Delays(append(append([]*Connection{}, existing...), probe))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("alloc %v: %d delays, want %d", alloc, len(got), len(want))
		}
		for id, w := range want {
			g := got[id]
			if math.IsInf(w, 1) != math.IsInf(g, 1) {
				t.Fatalf("alloc %v, conn %s: got %v, want %v", alloc, id, g, w)
			}
			if !math.IsInf(w, 1) && math.Abs(g-w) > 1e-12*math.Max(1, w) {
				t.Fatalf("alloc %v, conn %s: got %v, want %v", alloc, id, g, w)
			}
		}
	}
}

// TestProbeSessionSameRingCandidate: a candidate that never leaves its ring
// taints no ports, so every existing connection is reused.
func TestProbeSessionSameRingCandidate(t *testing.T) {
	ctl := loadedController(t)
	net := ctl.Network()
	existing := ctl.Connections()
	cand := testConnOn(t, net, "probe", 2, 0, 2, 3, 0, 0)
	session, err := analyzerOf(ctl).NewProbeSession(existing, cand)
	if err != nil {
		t.Fatal(err)
	}
	if session.Affected() != 0 {
		t.Errorf("same-ring candidate affected %d connections, want 0", session.Affected())
	}
	got, err := session.Delays(1e-3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(existing)+1 {
		t.Errorf("delays = %d entries, want %d", len(got), len(existing)+1)
	}
}

// TestProbeSessionReducesWork: the session must classify at least one
// connection as unaffected when routes are disjoint.
func TestProbeSessionReducesWork(t *testing.T) {
	ctl := newController(t, Options{})
	// Two connections with fully disjoint port sets: 0→1 and 2→0 share no
	// directed uplink/inter-switch/downlink with a candidate 1→2.
	for i, pair := range [][4]int{{0, 0, 1, 0}, {2, 0, 0, 2}} {
		spec := testSpec(t, fmtID("bg", i), pair[0], pair[1], pair[2], pair[3])
		dec, err := ctl.RequestAdmission(spec)
		if err != nil || !dec.Admitted {
			t.Fatalf("setup %d: %v %v", i, err, dec.Reason)
		}
	}
	cand := testConnOn(t, ctl.Network(), "probe", 1, 1, 2, 1, 0, 0)
	session, err := analyzerOf(ctl).NewProbeSession(ctl.Connections(), cand)
	if err != nil {
		t.Fatal(err)
	}
	// Route 1→2 uses id1:up, sw1->sw2, sw2->id2; bg0 (0→1) uses id0:up,
	// sw0->sw1, sw1->id1; bg1 (2→0) uses id2:up, sw2->sw0, sw0->id0.
	// No overlap → both unaffected.
	if session.Affected() != 0 {
		t.Errorf("Affected = %d, want 0 for disjoint routes", session.Affected())
	}
}
