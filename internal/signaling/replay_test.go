package signaling

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"fafnet/internal/core"
	"fafnet/internal/obs"
	"fafnet/internal/topo"
	"fafnet/internal/units"
)

// freshController builds a controller over the default topology.
func freshController(t *testing.T, opts core.Options) *core.Controller {
	t.Helper()
	net0, err := topo.NewNetwork(topo.Default())
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := core.NewController(net0, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ctl
}

// admittedSet summarizes a controller's live connections for comparison.
func admittedSet(ctl *core.Controller) map[string][2]float64 {
	out := make(map[string][2]float64)
	for _, c := range ctl.Connections() {
		out[c.ID] = [2]float64{c.HS, c.HR}
	}
	return out
}

// recordWorkload runs a mixed workload against an audited server and returns
// the log it wrote together with the admitted set the server ended with:
// three admits and one real release, plus the state-neutral records a replay
// must skip — a preview, a rejected admit, and a release that finds nothing.
func recordWorkload(t *testing.T) ([]byte, map[string][2]float64) {
	t.Helper()
	var buf bytes.Buffer
	client, srv := startServer(t)
	writer := auditTo(t, srv, obs.NewAuditLog(&buf))

	admits := []struct {
		id               string
		srcRing, dstRing int
	}{{"v1", 0, 1}, {"v2", 1, 2}, {"v3", 2, 0}}
	for _, a := range admits {
		dec, err := client.Admit(videoRequest(a.id, a.srcRing, 0, a.dstRing, 0))
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Admitted {
			t.Fatalf("%s rejected: %s", a.id, dec.Reason)
		}
	}
	if _, err := client.Preview(videoRequest("peek", 1, 0, 2, 0)); err != nil {
		t.Fatal(err)
	}
	impossible := videoRequest("no", 0, 0, 1, 0)
	impossible.DeadlineMillis = 1
	if dec, err := client.Admit(impossible); err != nil || dec.Admitted {
		t.Fatalf("impossible admit: %+v %v", dec, err)
	}
	if ok, err := client.Release("ghost"); err != nil || ok {
		t.Fatalf("ghost release: %v %v", ok, err)
	}
	if ok, err := client.Release("v2"); err != nil || !ok {
		t.Fatalf("release v2: %v %v", ok, err)
	}
	writer.Flush()
	return buf.Bytes(), admittedSet(srv.pipe)
}

// TestReplayReproducesControllerState is the recovery round trip: the log of
// a mixed workload is read back and replayed against a fresh controller,
// which must end with the identical admitted set and allocations.
func TestReplayReproducesControllerState(t *testing.T) {
	log, want := recordWorkload(t)
	if len(want) != 2 {
		t.Fatalf("server ended with %d connections, want 2", len(want))
	}

	records, err := obs.ReadAuditRecords(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	ctl2 := freshController(t, core.Options{})
	stats, err := Replay(ctl2, records)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Admits != 3 || stats.Releases != 1 || stats.Skipped != 3 {
		t.Errorf("stats = %+v, want 3 admits, 1 release, 3 skipped", stats)
	}
	got := admittedSet(ctl2)
	if len(got) != len(want) {
		t.Fatalf("replayed %d connections, want %d", len(got), len(want))
	}
	var ids []string
	for id := range want {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		w, g := want[id], got[id]
		if !units.AlmostEq(w[0], g[0]) || !units.AlmostEq(w[1], g[1]) {
			t.Errorf("%s allocations: replayed HS=%v HR=%v, want HS=%v HR=%v", id, g[0], g[1], w[0], w[1])
		}
	}
}

// TestReplayDetectsOptionMismatch: replaying against a controller with a
// different β must fail loudly rather than rebuild divergent state.
func TestReplayDetectsOptionMismatch(t *testing.T) {
	var buf bytes.Buffer
	client, srv := startServer(t)
	writer := auditTo(t, srv, obs.NewAuditLog(&buf))
	if _, err := client.Admit(videoRequest("v1", 0, 0, 1, 0)); err != nil {
		t.Fatal(err)
	}
	writer.Flush()
	records, err := obs.ReadAuditRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ctl2 := freshController(t, core.Options{Beta: 0.75})
	if _, err := Replay(ctl2, records); err == nil || !strings.Contains(err.Error(), "β") {
		t.Fatalf("replay with mismatched β returned %v, want an options error", err)
	}
}

// TestReplayDetectsMissingRelease: a release record whose connection is
// absent means the log is inconsistent.
func TestReplayDetectsMissingRelease(t *testing.T) {
	released := true
	records := []obs.AuditRecord{{Op: "release", ConnID: "ghost", Released: &released}}
	if _, err := Replay(freshController(t, core.Options{}), records); err == nil {
		t.Fatal("replaying a release of an unknown connection must fail")
	}
}

// TestReplayRejectsUnknownOp guards the record schema.
func TestReplayRejectsUnknownOp(t *testing.T) {
	records := []obs.AuditRecord{{Op: "dance"}}
	if _, err := Replay(freshController(t, core.Options{}), records); err == nil {
		t.Fatal("unknown op must fail the replay")
	}
}
