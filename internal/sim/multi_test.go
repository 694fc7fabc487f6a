package sim

import (
	"bytes"
	"reflect"
	"testing"

	"fafnet/internal/topo"
	"fafnet/internal/workload"
)

func multiConfig(seed int64) MultiConfig {
	return MultiConfig{
		Spec:     workload.Default(),
		Requests: 120,
		Warmup:   20,
		Seed:     seed,
		Record:   true,
	}
}

func TestRunMultiDeterministic(t *testing.T) {
	a, err := RunMulti(multiConfig(42))
	if err != nil {
		t.Fatalf("RunMulti: %v", err)
	}
	b, err := RunMulti(multiConfig(42))
	if err != nil {
		t.Fatalf("RunMulti: %v", err)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("same seed, different fingerprints: %x vs %x", a.Fingerprint, b.Fingerprint)
	}
	if !reflect.DeepEqual(a.PerClass, b.PerClass) {
		t.Fatal("same seed, different per-class stats")
	}
	c, err := RunMulti(multiConfig(43))
	if err != nil {
		t.Fatalf("RunMulti: %v", err)
	}
	if c.Fingerprint == a.Fingerprint {
		t.Fatal("different seeds produced the same decision stream")
	}
}

func TestRunMultiBasicShape(t *testing.T) {
	res, err := RunMulti(multiConfig(7))
	if err != nil {
		t.Fatalf("RunMulti: %v", err)
	}
	if res.Total.Trials() != 120 {
		t.Fatalf("counted %d requests, want 120", res.Total.Trials())
	}
	if res.Total.Value() <= 0 {
		t.Fatal("nothing admitted; workload sized wrong for the default network")
	}
	if len(res.PerClass) == 0 {
		t.Fatal("no per-class stats")
	}
	sum := 0
	for i, c := range res.PerClass {
		if i > 0 && c.Class <= res.PerClass[i-1].Class {
			t.Fatal("per-class results not sorted by name")
		}
		sum += c.AP.Trials()
	}
	if sum != res.Total.Trials() {
		t.Fatalf("per-class trials sum %d != total %d", sum, res.Total.Trials())
	}
	if res.Jain <= 0 || res.Jain > 1 {
		t.Fatalf("Jain index %v out of (0, 1]", res.Jain)
	}
	if len(res.Trace) < 120 {
		t.Fatalf("trace has %d events, want >= 120 (warmup included)", len(res.Trace))
	}
	if res.Duration <= 0 || res.MeanActive <= 0 {
		t.Fatalf("degenerate run: duration %v, mean active %v", res.Duration, res.MeanActive)
	}
}

// TestRunMultiReplayBitIdentical is the record/replay contract: replaying a
// recorded trace reproduces the decision stream and statistics exactly,
// including through a serialization round trip.
func TestRunMultiReplayBitIdentical(t *testing.T) {
	rec, err := RunMulti(multiConfig(99))
	if err != nil {
		t.Fatalf("record run: %v", err)
	}

	// Round-trip the trace through its JSON-lines wire form first, so the
	// test covers the file format, not just in-memory replay.
	var buf bytes.Buffer
	if err := workload.WriteTrace(&buf, rec.Trace); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	events, err := workload.ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}

	rep, err := RunMulti(MultiConfig{Replay: events, Warmup: 20})
	if err != nil {
		t.Fatalf("replay run: %v", err)
	}
	if rep.Fingerprint != rec.Fingerprint {
		t.Fatalf("replay fingerprint %x != recorded %x", rep.Fingerprint, rec.Fingerprint)
	}
	if !reflect.DeepEqual(rep.PerClass, rec.PerClass) {
		t.Fatalf("replay per-class stats diverged:\n got %+v\nwant %+v", rep.PerClass, rec.PerClass)
	}
	if rep.Total != rec.Total {
		t.Fatalf("replay total %v != recorded %v", rep.Total, rec.Total)
	}
	if len(rep.Admitted) != len(rec.Admitted) {
		t.Fatalf("replay admitted %d connections, recorded %d", len(rep.Admitted), len(rec.Admitted))
	}
	for i := range rep.Admitted {
		if rep.Admitted[i].ID != rec.Admitted[i].ID ||
			rep.Admitted[i].HS != rec.Admitted[i].HS ||
			rep.Admitted[i].HR != rec.Admitted[i].HR {
			t.Fatalf("admitted snapshot %d diverged: %+v vs %+v", i, rep.Admitted[i], rec.Admitted[i])
		}
	}
}

func TestRunMultiErrors(t *testing.T) {
	if _, err := RunMulti(MultiConfig{}); err == nil {
		t.Fatal("empty config (no spec, no replay) must fail")
	}
	bad := multiConfig(1)
	bad.Spec.Classes[0].Arrival.RatePerSec = -1
	if _, err := RunMulti(bad); err == nil {
		t.Fatal("invalid spec must fail")
	}
	oneRing := multiConfig(1)
	oneRing.Topology = topo.Default()
	oneRing.Topology.NumRings = 1
	if _, err := RunMulti(oneRing); err == nil {
		t.Fatal("a one-ring topology has no remote destination and must fail")
	}
}
