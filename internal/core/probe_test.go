package core

import (
	"math"
	"slices"
	"strings"
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
// must equal a from-scratch full-network evaluation bit for bit, and its
// verdicts the reference's conjunctions. What a session keeps from one probe
// for the next must survive every order of probes: Delays forward and then
// in reverse, and verdict probes (Feasible, FeasibleWithin) before any Delays,
// whose walks stop short and so keep no total.
func TestProbeSessionMatchesFullEvaluation(t *testing.T) {
	ctl := loadedController(t)
	net := ctl.Network()
	existing := ctl.Connections()
	cand := testConnOn(t, net, "probe", 0, 0, 1, 0, 0, 0)
	allocs := []allocation{
		{0.3e-3, 0.3e-3}, // below stability: infinite
		{0.6e-3, 0.6e-3},
		{1e-3, 1.4e-3},
		{2.5e-3, 2.5e-3},
	}
	reference := func(a allocation) map[string]float64 {
		t.Helper()
		an, err := NewAnalyzer(net, AnalysisOptions{})
		if err != nil {
			t.Fatal(err)
		}
		probe := cand.clone()
		probe.HS, probe.HR = a.hs, a.hr
		want, err := an.Delays(append(slices.Clone(existing), probe))
		if err != nil {
			t.Fatal(err)
		}
		return want
	}
	refMax := reference(allocs[len(allocs)-1])
	withinRef := func(delays map[string]float64) bool {
		for id, dMax := range refMax {
			if !units.WithinRel(delays[id], dMax, equalTolerance) {
				return false
			}
		}
		return true
	}
	newSession := func() *ProbeSession {
		t.Helper()
		s, err := analyzerOf(ctl).NewProbeSession(existing, cand)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	checkDelays := func(order string, s *ProbeSession, as []allocation) {
		t.Helper()
		for _, a := range as {
			got, err := s.Delays(a.hs, a.hr)
			if err != nil {
				t.Fatal(err)
			}
			want := reference(a)
			if len(got) != len(want) {
				t.Fatalf("%s, alloc %v: %d delays, want %d", order, a, len(got), len(want))
			}
			for id, w := range want {
				if g, ok := got[id]; !ok || math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s, alloc %v, conn %s: got %v, want %v", order, a, id, g, w)
				}
			}
		}
	}
	reversed := slices.Clone(allocs)
	slices.Reverse(reversed)

	s := newSession()
	checkDelays("forward", s, allocs)
	checkDelays("reverse", s, reversed)

	s = newSession()
	for _, a := range allocs {
		want := reference(a)
		feasible := meetsDeadlines(existing, cand, want)
		if got := s.Feasible(a.hs, a.hr); got != feasible {
			t.Fatalf("alloc %v: Feasible = %v, the reference's deadlines %v", a, got, feasible)
		}
		if got := s.FeasibleWithin(a.hs, a.hr, refMax, equalTolerance); got != (feasible && withinRef(want)) {
			t.Fatalf("alloc %v: FeasibleWithin = %v, the reference's conjunction %v", a, got, feasible && withinRef(want))
		}
	}
	checkDelays("forward after verdicts", s, allocs)
	checkDelays("reverse after verdicts", s, reversed)
}

// TestNewProbeSessionRejects: a session refuses, when it is built, every
// connection set no evaluation can be built over — a nil or invalid standing
// connection, two under one id, a standing allocation missing, a route
// without port indexes — and a source, the candidate's or a standing one,
// with no flat lowering.
func TestNewProbeSessionRejects(t *testing.T) {
	net := defaultNet(t)
	a, err := NewAnalyzer(net, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	standing := func(id string) *Connection { return testConnOn(t, net, id, 1, 0, 2, 0, 2e-3, 2e-3) }
	candidate := func() *Connection { return testConnOn(t, net, "c", 0, 0, 1, 0, 0, 0) }
	for _, tc := range []struct {
		name string
		edit func(existing []*Connection, cand *Connection) ([]*Connection, *Connection)
		want string
	}{
		{"no candidate", func(e []*Connection, _ *Connection) ([]*Connection, *Connection) { return e, nil }, "requires a candidate"},
		{"nil standing connection", func(e []*Connection, c *Connection) ([]*Connection, *Connection) { return append(e, nil), c }, "nil connection"},
		{"invalid standing spec", func(e []*Connection, c *Connection) ([]*Connection, *Connection) {
			e[0].Deadline = 0
			return e, c
		}, "deadline"},
		{"duplicate standing id", func(e []*Connection, c *Connection) ([]*Connection, *Connection) {
			return append(e, standing("s0")), c
		}, "duplicate connection id"},
		{"standing sender allocation missing", func(e []*Connection, c *Connection) ([]*Connection, *Connection) {
			e[1].HS = 0
			return e, c
		}, "no sender allocation"},
		{"standing receiver allocation missing", func(e []*Connection, c *Connection) ([]*Connection, *Connection) {
			e[1].HR = 0
			return e, c
		}, "without a receiver allocation"},
		{"standing route without port indexes", func(e []*Connection, c *Connection) ([]*Connection, *Connection) {
			e[0].Route.PortIndex = nil
			return e, c
		}, "without port indexes"},
		{"candidate route without port indexes", func(e []*Connection, c *Connection) ([]*Connection, *Connection) {
			c.Route.PortIndex = nil
			return e, c
		}, "without port indexes"},
		{"standing source with no flat lowering", func(e []*Connection, c *Connection) ([]*Connection, *Connection) {
			e[1].Source = unlowerable{e[1].Source}
			return e, c
		}, "no lowering"},
		{"candidate source with no flat lowering", func(e []*Connection, c *Connection) ([]*Connection, *Connection) {
			c.Source = unlowerable{c.Source}
			return e, c
		}, "no lowering"},
	} {
		existing, cand := tc.edit([]*Connection{standing("s0"), standing("s1")}, candidate())
		if _, err := a.NewProbeSession(existing, cand); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: NewProbeSession error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
	if _, err := a.NewProbeSession([]*Connection{standing("s0"), standing("s1")}, candidate()); err != nil {
		t.Errorf("the unedited set: %v", err)
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
