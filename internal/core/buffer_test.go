package core

import (
	"math"
	"testing"

	"fafnet/internal/traffic"
)

func TestBufferReport(t *testing.T) {
	ctl := newController(t, Options{})
	for i, pair := range [][4]int{{0, 0, 1, 0}, {1, 0, 2, 0}} {
		dec, err := ctl.RequestAdmission(testSpec(t, fmtID("c", i), pair[0], pair[1], pair[2], pair[3]))
		if err != nil || !dec.Admitted {
			t.Fatalf("setup %d: %v %v", i, err, dec.Reason)
		}
	}
	report, err := ctl.BufferReport()
	if err != nil {
		t.Fatal(err)
	}
	if len(report) != 2 {
		t.Fatalf("report entries = %d, want 2", len(report))
	}
	for _, r := range report {
		if r.SrcBufferBits <= 0 {
			t.Errorf("%s: source buffer requirement %v, want positive", r.ConnID, r.SrcBufferBits)
		}
		if r.DstBufferBits <= 0 {
			t.Errorf("%s: device buffer requirement %v, want positive", r.ConnID, r.DstBufferBits)
		}
		// The requirement can never exceed what the source could emit over
		// the whole busy interval; sanity-bound it by one second of traffic.
		if r.SrcBufferBits > 15e6 {
			t.Errorf("%s: absurd source buffer requirement %v", r.ConnID, r.SrcBufferBits)
		}
	}
	// The reported requirement is consistent with the breakdown.
	bd, err := ctl.BreakdownFor("c0")
	if err != nil {
		t.Fatal(err)
	}
	if bd.SrcBufferBits != report[0].SrcBufferBits {
		t.Errorf("breakdown src buffer %v != report %v", bd.SrcBufferBits, report[0].SrcBufferBits)
	}
}

// TestPreviewAdmission: the preview path reports the same decision as the
// committing path but leaves no state behind.
func TestPreviewAdmission(t *testing.T) {
	ctl := newController(t, Options{})
	spec := testSpec(t, "c1", 0, 0, 1, 0)
	preview, err := ctl.PreviewAdmission(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !preview.Admitted {
		t.Fatalf("preview rejected: %s", preview.Reason)
	}
	if ctl.Active() != 0 {
		t.Fatalf("preview committed a connection")
	}
	if got, _ := ctl.RingLedger(0); got != 0 {
		t.Fatalf("preview reserved %v on ring 0", got)
	}
	// Committing afterwards yields the identical decision.
	real, err := ctl.RequestAdmission(spec)
	if err != nil {
		t.Fatal(err)
	}
	if real.HS != preview.HS || real.HR != preview.HR || real.Admitted != preview.Admitted {
		t.Errorf("preview (%v,%v) and commit (%v,%v) disagree", preview.HS, preview.HR, real.HS, real.HR)
	}
	// Previewing an impossible request also leaves no state.
	bad := testSpec(t, "c2", 0, 1, 1, 1)
	bad.Deadline = 1e-3
	dec, err := ctl.PreviewAdmission(bad)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Admitted {
		t.Error("impossible preview admitted")
	}
	if ctl.Active() != 1 {
		t.Errorf("Active = %d after failed preview, want 1", ctl.Active())
	}
}

// TestAdmissionDeterminism: identical request sequences against identical
// controllers produce identical decisions and allocations.
func TestAdmissionDeterminism(t *testing.T) {
	runSeq := func() []Decision {
		ctl := newController(t, Options{})
		var out []Decision
		for i, pair := range [][4]int{{0, 0, 1, 0}, {0, 1, 2, 0}, {1, 0, 2, 1}, {2, 0, 0, 2}} {
			dec, err := ctl.RequestAdmission(testSpec(t, fmtID("c", i), pair[0], pair[1], pair[2], pair[3]))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, dec)
		}
		return out
	}
	a, b := runSeq(), runSeq()
	for i := range a {
		if a[i].Admitted != b[i].Admitted || a[i].HS != b[i].HS || a[i].HR != b[i].HR {
			t.Fatalf("decision %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestBacklogOnDemandMatchesFreshAnalyzer runs the verdict-only probes of a
// bisection — some of whose last MACs the closed-form bound answers — and a
// reporting probe on a lane's analyzer, then asks that analyzer for every
// report that reads F: Analyzer.Breakdown of the probed set, the probe
// session's own Breakdown and the controller's BufferReport. Records filled
// by probes that computed no F are filled in place, and every F must be
// bit-equal to a fresh analyzer's. Filling in place keeps the stage-0
// envelope beside the sender-MAC result — the very flat — and a later
// evaluation of the same set runs no analysis and lowers nothing.
func TestBacklogOnDemandMatchesFreshAnalyzer(t *testing.T) {
	ctl := loadedController(t)
	a := analyzerOf(ctl)
	existing := ctl.Connections()
	cand := testConnOn(t, ctl.Network(), "probe", 0, 0, 1, 0, 0, 0)
	s, err := a.NewProbeSession(existing, cand)
	if err != nil {
		t.Fatal(err)
	}
	holds := counterValue(t, "fafnet_cac_probe_bound_holds_total")
	for _, h := range []float64{0.4e-3, 0.6e-3, 0.9e-3, 1.4e-3, 2e-3, 3e-3} {
		s.Feasible(h, h)
	}
	if counterValue(t, "fafnet_cac_probe_bound_holds_total") == holds {
		t.Fatal("no probe was answered by the closed-form bound: the case exercises nothing")
	}
	const hs, hr = 1.4e-3, 1.4e-3
	if _, err := s.Delays(hs, hr); err != nil {
		t.Fatal(err)
	}
	probed := cand.clone()
	probed.HS, probed.HR = hs, hr
	set := append(existing[:len(existing):len(existing)], probed)
	stage0 := func() traffic.Envelope { return a.record(probed).hops[recKey{x: math.Float64bits(hs)}].out }
	kept := stage0()
	if kept == nil {
		t.Fatal("the reporting probe left no stage-0 envelope in the candidate's record")
	}

	fresh, err := NewAnalyzer(ctl.Network(), AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameF := func(what string, got, want Breakdown) {
		t.Helper()
		if math.Float64bits(got.SrcBufferBits) != math.Float64bits(want.SrcBufferBits) ||
			math.Float64bits(got.DstBufferBits) != math.Float64bits(want.DstBufferBits) {
			t.Errorf("%s: F = (%v, %v), a fresh analyzer's (%v, %v)", what, got.SrcBufferBits, got.DstBufferBits, want.SrcBufferBits, want.DstBufferBits)
		}
	}
	want := make(map[string]Breakdown)
	for _, c := range set {
		if want[c.ID], err = fresh.Breakdown(set, c.ID); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Breakdown(probed.ID)
	if err != nil {
		t.Fatal(err)
	}
	sameF("ProbeSession.Breakdown", got, want[probed.ID])
	for _, c := range set {
		got, err := a.Breakdown(set, c.ID)
		if err != nil {
			t.Fatal(err)
		}
		sameF("Analyzer.Breakdown of "+c.ID, got, want[c.ID])
	}

	if stage0() != kept {
		t.Error("filling the sender entry's F replaced the stage-0 envelope it caches")
	}

	report, err := ctl.BufferReport()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range report {
		bd, err := fresh.Breakdown(existing, r.ConnID)
		if err != nil {
			t.Fatal(err)
		}
		sameF("BufferReport of "+r.ConnID, Breakdown{SrcBufferBits: r.SrcBufferBits, DstBufferBits: r.DstBufferBits}, bd)
	}

	counters := []string{"fafnet_fddi_mac_analyses_total", "fafnet_cac_flat_lowerings_total"}
	before := make([]uint64, len(counters))
	for i, name := range counters {
		before[i] = counterValue(t, name)
	}
	if _, err := a.Delays(set); err != nil {
		t.Fatal(err)
	}
	for i, name := range counters {
		if d := counterValue(t, name) - before[i]; d != 0 {
			t.Errorf("an evaluation after the reports added %d to %s, want 0", d, name)
		}
	}
}
