package core

import (
	"testing"

	"fafnet/internal/units"
)

// TestDecisionCarriesStagesAndCache covers the observability additions to
// Decision: the Eq. 7 decomposition of the committed allocation and the
// per-decision cache-traffic diff.
func TestDecisionCarriesStagesAndCache(t *testing.T) {
	ctl := newController(t, Options{})
	dec, err := ctl.RequestAdmission(testSpec(t, "c1", 0, 0, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Admitted {
		t.Fatalf("rejected: %s", dec.Reason)
	}
	if dec.Stages == nil {
		t.Fatal("admitted decision carries no stage decomposition")
	}
	// The decomposition must agree with the committed decision: same total
	// as the recorded delay, and the stages must sum to the total.
	if !units.AlmostEq(dec.Stages.Total, dec.Delays["c1"]) {
		t.Errorf("Stages.Total = %v, recorded delay = %v", dec.Stages.Total, dec.Delays["c1"])
	}
	sum := dec.Stages.SrcMAC + dec.Stages.Shaper + dec.Stages.DstMAC + dec.Stages.Constant
	for _, pd := range dec.Stages.Ports {
		sum += pd.Delay
	}
	if !units.AlmostEq(sum, dec.Stages.Total) {
		t.Errorf("stage sum %v != Total %v", sum, dec.Stages.Total)
	}
	// Cache traffic: a bisecting admission re-probes the candidate's sender
	// MAC at many allocations — every first visit is a miss.
	if dec.Cache.MACMisses == 0 {
		t.Errorf("Cache = %+v, want nonzero MAC misses", dec.Cache)
	}

	// A second admission re-evaluates c1's stage-0 envelope and sender MAC
	// at its committed (unchanged) allocation: cache hits.
	dec2, err := ctl.RequestAdmission(testSpec(t, "c2", 0, 1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !dec2.Admitted {
		t.Fatalf("second admission rejected: %s", dec2.Reason)
	}
	if dec2.Cache.Stage0Hits == 0 && dec2.Cache.MACHits == 0 {
		t.Errorf("second decision saw no cache hits: %+v", dec2.Cache)
	}
	// Lifetime totals are the sum of the per-decision diffs.
	total := analyzerOf(ctl).CacheStats()
	want := dec.Cache
	for _, c := range []CacheStats{dec2.Cache} {
		want.Stage0Hits += c.Stage0Hits
		want.Stage0Misses += c.Stage0Misses
		want.MACHits += c.MACHits
		want.MACMisses += c.MACMisses
	}
	if total != want {
		t.Errorf("analyzer totals %+v != summed decision diffs %+v", total, want)
	}

	// The decomposition must also agree with a fresh full evaluation of the
	// committed state. c2 decided against the final connection set
	// (c1 admitted, nothing after), so its stages are still current — c1's
	// are not, since c2's traffic changed c1's port delays. (Run last:
	// BreakdownFor itself generates cache traffic outside any decision,
	// which would skew the totals check above.)
	fresh, err := ctl.BreakdownFor("c2")
	if err != nil {
		t.Fatal(err)
	}
	if !units.AlmostEq(fresh.Total, dec2.Stages.Total) {
		t.Errorf("fresh breakdown total %v != decision stages total %v", fresh.Total, dec2.Stages.Total)
	}
}

// TestPreviewLeavesGaugeConsistent ensures preview decisions do not commit
// state (the active-connections invariant the gauge reports).
func TestPreviewStagesMatchAdmission(t *testing.T) {
	preview := newController(t, Options{})
	pdec, err := preview.PreviewAdmission(testSpec(t, "c1", 0, 0, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	commit := newController(t, Options{})
	cdec, err := commit.RequestAdmission(testSpec(t, "c1", 0, 0, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !pdec.Admitted || !cdec.Admitted {
		t.Fatalf("admissions failed: %v / %v", pdec.Reason, cdec.Reason)
	}
	if pdec.Stages == nil || cdec.Stages == nil {
		t.Fatal("missing stage decomposition")
	}
	if !units.AlmostEq(pdec.Stages.Total, cdec.Stages.Total) {
		t.Errorf("preview total %v != commit total %v", pdec.Stages.Total, cdec.Stages.Total)
	}
	if preview.Active() != 0 {
		t.Errorf("preview committed %d connections", preview.Active())
	}
}
