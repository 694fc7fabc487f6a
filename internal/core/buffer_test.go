package core

import (
	"testing"
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
