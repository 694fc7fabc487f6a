package core

import (
	"math"
	"testing"

	"fafnet/internal/des"
	"fafnet/internal/topo"
	"fafnet/internal/units"
)

func testSpec(t testing.TB, id string, srcRing, srcHost, dstRing, dstHost int) ConnSpec {
	t.Helper()
	return ConnSpec{
		ID:       id,
		Src:      topo.HostID{Ring: srcRing, Index: srcHost},
		Dst:      topo.HostID{Ring: dstRing, Index: dstHost},
		Source:   paperSource(t),
		Deadline: 0.120,
	}
}

func newController(t testing.TB, opts Options) *Controller {
	t.Helper()
	ctl, err := NewController(defaultNet(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	return ctl
}

// analyzerOf returns the controller's analyzer for white-box tests. It is
// read under mu and used after: these tests run on one goroutine.
func analyzerOf(ctl *Controller) *Analyzer {
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	return ctl.an
}

func TestAdmitOnEmptyNetwork(t *testing.T) {
	ctl := newController(t, Options{})
	dec, err := ctl.RequestAdmission(testSpec(t, "c1", 0, 0, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Admitted {
		t.Fatalf("rejected: %s", dec.Reason)
	}
	if dec.Reason != ReasonAdmitted {
		t.Errorf("Reason = %q", dec.Reason)
	}
	// Allocation within bounds and within the [min_need, max_need] bracket.
	if dec.HS < dec.HSMinNeed-units.Eps || dec.HS > dec.HSMaxAvail+units.Eps {
		t.Errorf("HS = %v outside [%v, %v]", dec.HS, dec.HSMinNeed, dec.HSMaxAvail)
	}
	if dec.HR < dec.HRMinNeed-units.Eps || dec.HR > dec.HRMaxAvail+units.Eps {
		t.Errorf("HR = %v outside [%v, %v]", dec.HR, dec.HRMinNeed, dec.HRMaxAvail)
	}
	if dec.HSMaxNeed < dec.HSMinNeed-units.Eps {
		t.Errorf("max_need %v below min_need %v", dec.HSMaxNeed, dec.HSMinNeed)
	}
	// Stability floor: HS·BW >= ρ·TTRT for the workload.
	ring := ctl.Network().Config().Ring
	const loadBps = 15e6 // the workload's long-term rate ρ
	floor := loadBps * ring.TTRT / ring.BandwidthBps
	if dec.HS < floor-1e-6 {
		t.Errorf("HS = %v below the stability floor %v", dec.HS, floor)
	}
	// Ring bookkeeping committed.
	if got, _ := ctl.RingLedger(0); !units.AlmostEq(got, dec.HS) {
		t.Errorf("ring 0 allocated %v, want %v", got, dec.HS)
	}
	if got, _ := ctl.RingLedger(1); !units.AlmostEq(got, dec.HR) {
		t.Errorf("ring 1 allocated %v, want %v", got, dec.HR)
	}
	// Delays recorded and within deadline.
	if d := dec.Delays["c1"]; d <= 0 || d > 0.120 {
		t.Errorf("recorded delay %v", d)
	}
	if dec.Probes < 3 {
		t.Errorf("Probes = %d, suspiciously few", dec.Probes)
	}
}

func TestBetaZeroAndOneBracketAllocation(t *testing.T) {
	specs := func() ConnSpec { return testSpec(t, "c1", 0, 0, 1, 0) }
	zero := newController(t, Options{Beta: 0, BetaSet: true})
	dZero, err := zero.RequestAdmission(specs())
	if err != nil {
		t.Fatal(err)
	}
	one := newController(t, Options{Beta: 1})
	dOne, err := one.RequestAdmission(specs())
	if err != nil {
		t.Fatal(err)
	}
	if !dZero.Admitted || !dOne.Admitted {
		t.Fatalf("admissions failed: %v / %v", dZero.Reason, dOne.Reason)
	}
	if !units.AlmostEq(dZero.HS, dZero.HSMinNeed) {
		t.Errorf("β=0: HS = %v, want min_need %v", dZero.HS, dZero.HSMinNeed)
	}
	if !units.AlmostEq(dOne.HS, dOne.HSMaxNeed) {
		t.Errorf("β=1: HS = %v, want max_need %v", dOne.HS, dOne.HSMaxNeed)
	}
	if dOne.HS < dZero.HS-units.Eps {
		t.Errorf("β=1 allocation %v below β=0 allocation %v", dOne.HS, dZero.HS)
	}
}

func TestRejectImpossibleDeadline(t *testing.T) {
	ctl := newController(t, Options{})
	spec := testSpec(t, "c1", 0, 0, 1, 0)
	spec.Deadline = 1e-3 // below the two-MAC protocol floor (~30 ms)
	dec, err := ctl.RequestAdmission(spec)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Admitted {
		t.Fatal("impossible deadline admitted")
	}
	if dec.Reason != ReasonInfeasible {
		t.Errorf("Reason = %q, want %q", dec.Reason, ReasonInfeasible)
	}
	// Nothing committed.
	if got, _ := ctl.RingLedger(0); got != 0 || ctl.Active() != 0 {
		t.Error("rejected request left state behind")
	}
}

func TestRejectHostBusy(t *testing.T) {
	ctl := newController(t, Options{})
	if dec, err := ctl.RequestAdmission(testSpec(t, "c1", 0, 0, 1, 0)); err != nil || !dec.Admitted {
		t.Fatalf("setup admission failed: %v %v", err, dec.Reason)
	}
	dec, err := ctl.RequestAdmission(testSpec(t, "c2", 0, 0, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Admitted || dec.Reason != ReasonHostBusy {
		t.Errorf("Admitted=%v Reason=%q, want host-busy rejection", dec.Admitted, dec.Reason)
	}
}

func TestRejectDuplicateID(t *testing.T) {
	ctl := newController(t, Options{})
	if dec, err := ctl.RequestAdmission(testSpec(t, "c1", 0, 0, 1, 0)); err != nil || !dec.Admitted {
		t.Fatalf("setup admission failed: %v %v", err, dec.Reason)
	}
	if _, err := ctl.RequestAdmission(testSpec(t, "c1", 0, 1, 1, 1)); err == nil {
		t.Error("duplicate id should be a request error")
	}
}

func TestRejectWhenBandwidthExhausted(t *testing.T) {
	ctl := newController(t, Options{Beta: 1})
	admitted := 0
	// β=1 grabs max_need each time; keep admitting until the sender ring
	// runs dry (4 hosts available on ring 0, ρ needs >= 1.2 ms of the 7 ms
	// usable, and β=1 typically takes much more).
	var lastReason string
	for i := 0; i < 4; i++ {
		spec := testSpec(t, fmtID("c", i), 0, i, 1, i)
		dec, err := ctl.RequestAdmission(spec)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Admitted {
			admitted++
		} else {
			lastReason = dec.Reason
			break
		}
	}
	if admitted == 0 {
		t.Fatal("no connection admitted at all")
	}
	if admitted == 4 {
		t.Skip("ring capacity admitted all four at β=1; rejection path covered elsewhere")
	}
	if lastReason != ReasonNoBandwidth && lastReason != ReasonInfeasible {
		t.Errorf("rejection reason = %q", lastReason)
	}
}

func fmtID(prefix string, i int) string { return prefix + string(rune('0'+i)) }

func TestReleaseRestoresCapacity(t *testing.T) {
	ctl := newController(t, Options{})
	dec, err := ctl.RequestAdmission(testSpec(t, "c1", 0, 0, 1, 0))
	if err != nil || !dec.Admitted {
		t.Fatalf("admission failed: %v %v", err, dec.Reason)
	}
	_, before0 := ctl.RingLedger(0)
	if !ctl.Release("c1") {
		t.Fatal("release failed")
	}
	if ctl.Release("c1") {
		t.Error("double release should report false")
	}
	_, after0 := ctl.RingLedger(0)
	if after0 <= before0 {
		t.Errorf("release did not restore capacity: %v → %v", before0, after0)
	}
	usable := ctl.Network().Config().Ring.UsableTTRT()
	if !units.AlmostEq(after0, usable) {
		t.Errorf("ring 0 available %v, want full %v", after0, usable)
	}
	if ctl.Active() != 0 {
		t.Errorf("Active = %d after release", ctl.Active())
	}
	// The same id is admissible again.
	dec, err = ctl.RequestAdmission(testSpec(t, "c1", 0, 0, 1, 0))
	if err != nil || !dec.Admitted {
		t.Errorf("re-admission failed: %v %v", err, dec.Reason)
	}
}

func TestAdmittedDelaysAlwaysMeetDeadlines(t *testing.T) {
	// The central safety invariant: whatever sequence of admissions and
	// releases occurs, every admitted connection's recomputed worst case
	// stays within its deadline.
	ctl := newController(t, Options{})
	rng := des.NewRNG(7)
	hosts := ctl.Network().Hosts()
	active := map[string]bool{}
	next := 0
	for step := 0; step < 30; step++ {
		if len(active) > 0 && rng.Float64() < 0.3 {
			for id := range active {
				ctl.Release(id)
				delete(active, id)
				break
			}
			continue
		}
		src := hosts[rng.Intn(len(hosts))]
		if ctl.SourceBusy(src) {
			continue
		}
		dst := hosts[rng.Intn(len(hosts))]
		if dst.Ring == src.Ring {
			dst.Ring = (dst.Ring + 1) % 3
		}
		spec := testSpec(t, fmtID("m", next), src.Ring, src.Index, dst.Ring, dst.Index)
		next++
		dec, err := ctl.RequestAdmission(spec)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Admitted {
			active[spec.ID] = true
		}
		report, err := ctl.DelayReport()
		if err != nil {
			t.Fatal(err)
		}
		for _, conn := range ctl.Connections() {
			if report[conn.ID] > conn.Deadline*(1+units.RelTol) {
				t.Fatalf("step %d: connection %s delay %v exceeds deadline %v",
					step, conn.ID, report[conn.ID], conn.Deadline)
			}
		}
	}
	if next < 5 {
		t.Fatalf("exercise too small: %d requests", next)
	}
}

func TestFeasibleRegionIsUpwardClosedAlongSegment(t *testing.T) {
	// Theorems 3–4: with a feasible maximum, the feasible portion of the
	// proportional segment is an interval ending at the maximum. Verify
	// empirically: once feasible, never infeasible again as α grows.
	ctl := newController(t, Options{})
	// Preload a competitor to make the region nontrivial.
	if dec, err := ctl.RequestAdmission(testSpec(t, "bg", 0, 3, 1, 3)); err != nil || !dec.Admitted {
		t.Fatalf("setup: %v %v", err, dec.Reason)
	}
	spec := testSpec(t, "probe", 0, 0, 1, 0)
	_, hsMax := ctl.RingLedger(0)
	_, hrMax := ctl.RingLedger(1)
	seen := false
	for alpha := 0.05; alpha <= 1.0001; alpha += 0.05 {
		ok, err := ctl.FeasibleAllocation(spec, alpha*hsMax, alpha*hrMax)
		if err != nil {
			t.Fatal(err)
		}
		if seen && !ok {
			t.Fatalf("feasibility lost at α=%v after being feasible", alpha)
		}
		if ok {
			seen = true
		}
	}
	if !seen {
		t.Fatal("no feasible point on the segment")
	}
}

func TestAllocationRulesDiffer(t *testing.T) {
	spec := func() ConnSpec { return testSpec(t, "c1", 0, 0, 1, 0) }
	prop := newController(t, Options{Rule: RuleProportional})
	dProp, err := prop.RequestAdmission(spec())
	if err != nil || !dProp.Admitted {
		t.Fatalf("proportional: %v %v", err, dProp.Reason)
	}
	biased := newController(t, Options{Rule: RuleSenderBiased})
	dBiased, err := biased.RequestAdmission(spec())
	if err != nil || !dBiased.Admitted {
		t.Fatalf("sender-biased: %v %v", err, dBiased.Reason)
	}
	if dBiased.HS <= dProp.HS {
		t.Errorf("sender-biased HS %v should exceed proportional HS %v", dBiased.HS, dProp.HS)
	}
	split := newController(t, Options{Rule: RuleFixedSplit})
	dSplit, err := split.RequestAdmission(spec())
	if err != nil || !dSplit.Admitted {
		t.Fatalf("fixed-split: %v %v", err, dSplit.Reason)
	}
	if !units.WithinRel(dSplit.HS, dSplit.HR, 1e-9) {
		t.Errorf("fixed-split allocations unequal: %v vs %v", dSplit.HS, dSplit.HR)
	}
}

func TestSameRingAdmission(t *testing.T) {
	ctl := newController(t, Options{})
	spec := testSpec(t, "local", 0, 0, 0, 2)
	dec, err := ctl.RequestAdmission(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Admitted {
		t.Fatalf("rejected: %s", dec.Reason)
	}
	if dec.HR != 0 {
		t.Errorf("same-ring HR = %v, want 0", dec.HR)
	}
	if got, _ := ctl.RingLedger(0); !units.AlmostEq(got, dec.HS) {
		t.Errorf("ring 0 allocated %v, want %v", got, dec.HS)
	}
}

func TestControllerValidation(t *testing.T) {
	if _, err := NewController(nil, Options{}); err == nil {
		t.Error("nil network should be rejected")
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"beta > 1", Options{Beta: 2}},
		{"negative beta", Options{Beta: -0.1, BetaSet: true}},
		{"NaN beta", Options{Beta: math.NaN(), BetaSet: true}},
		{"NaN beta, not marked set", Options{Beta: math.NaN()}},
		{"infinite beta", Options{Beta: math.Inf(1), BetaSet: true}},
		{"NaN minimum allocation", Options{HMinAbs: math.NaN()}},
		{"infinite minimum allocation", Options{HMinAbs: math.Inf(1)}},
	} {
		if _, err := NewController(defaultNet(t), tc.opts); err == nil {
			t.Errorf("%s should be rejected", tc.name)
		}
	}
	for _, opts := range []Options{{}, {Beta: 0, BetaSet: true}, {Beta: 1, BetaSet: true}, {HMinAbs: -1}} {
		if _, err := NewController(defaultNet(t), opts); err != nil {
			t.Errorf("%+v: %v", opts, err)
		}
	}
	ctl := newController(t, Options{})
	if _, err := ctl.RequestAdmission(ConnSpec{}); err == nil {
		t.Error("empty spec should error")
	}
	for _, tc := range []struct {
		name string
		edit func(*ConnSpec)
	}{
		{"negative deadline", func(s *ConnSpec) { s.Deadline = -1 }},
		{"NaN deadline", func(s *ConnSpec) { s.Deadline = math.NaN() }},
		{"infinite deadline", func(s *ConnSpec) { s.Deadline = math.Inf(1) }},
		{"negative host buffer", func(s *ConnSpec) { s.HostBufferBits = -1 }},
		{"NaN host buffer", func(s *ConnSpec) { s.HostBufferBits = math.NaN() }},
		{"infinite host buffer", func(s *ConnSpec) { s.HostBufferBits = math.Inf(1) }},
		{"negative infinite interface-device buffer", func(s *ConnSpec) { s.IDBufferBits = math.Inf(-1) }},
		{"NaN interface-device buffer", func(s *ConnSpec) { s.IDBufferBits = math.NaN() }},
		{"infinite interface-device buffer", func(s *ConnSpec) { s.IDBufferBits = math.Inf(1) }},
	} {
		bad := testSpec(t, "c1", 0, 0, 1, 0)
		tc.edit(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: Validate accepts it", tc.name)
		}
		if dec, err := ctl.RequestAdmission(bad); err == nil {
			t.Errorf("%s should error, got Admitted=%v Reason=%q", tc.name, dec.Admitted, dec.Reason)
		}
	}
	// Unroutable spec is a rejection, not an error.
	weird := testSpec(t, "c2", 0, 0, 0, 0)
	dec, err := ctl.RequestAdmission(weird)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Admitted || dec.Reason != ReasonInvalidTarget {
		t.Errorf("self-route: Admitted=%v Reason=%q", dec.Admitted, dec.Reason)
	}
	if _, err := ctl.BreakdownFor("ghost"); err == nil {
		t.Error("unknown breakdown id should error")
	}
}

func TestDecisionDelaysMatchReport(t *testing.T) {
	ctl := newController(t, Options{})
	dec, err := ctl.RequestAdmission(testSpec(t, "c1", 0, 0, 1, 0))
	if err != nil || !dec.Admitted {
		t.Fatalf("admission failed: %v %v", err, dec.Reason)
	}
	report, err := ctl.DelayReport()
	if err != nil {
		t.Fatal(err)
	}
	if !units.WithinRel(report["c1"], dec.Delays["c1"], 1e-9) {
		t.Errorf("report delay %v differs from decision delay %v", report["c1"], dec.Delays["c1"])
	}
	if math.IsInf(report["c1"], 0) {
		t.Error("admitted connection has no finite bound")
	}
}
