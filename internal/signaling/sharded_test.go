package signaling

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"fafnet/internal/core"
	"fafnet/internal/obs"
	"fafnet/internal/scenario"
	"fafnet/internal/topo"
	"fafnet/internal/units"
)

// startShardedSignalingServer brings up a server over the sharded pipeline,
// optionally routing its audit stream through an async writer into buf.
func startShardedSignalingServer(t *testing.T, buf *bytes.Buffer) (*Client, *core.Sharded, *obs.AsyncAuditWriter) {
	t.Helper()
	net0, err := topo.NewNetwork(topo.Default())
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := core.NewController(net0, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewShardedServer(pipe)
	if err != nil {
		t.Fatal(err)
	}
	var writer *obs.AsyncAuditWriter
	if buf != nil {
		writer = obs.NewAsyncAuditWriter(obs.NewAuditLog(buf), 256, true)
		srv.SetAsyncAudit(writer)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	client, err := Dial(l.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client, pipe, writer
}

// TestPreviewBatchRoundTrip drives OpPreviewBatch end to end: positional
// results, per-member failures carried in Decision.Error without failing
// the batch, and no state change server-side.
func TestPreviewBatchRoundTrip(t *testing.T) {
	client, pipe, _ := startShardedSignalingServer(t, nil)

	// Occupy one id so a batch member that reuses it fails per-member
	// (PreviewAdmission of an admitted id is a duplicate-id error).
	if dec, err := client.Admit(videoRequest("held", 0, 0, 1, 0)); err != nil || !dec.Admitted {
		t.Fatalf("setup admission: %+v, %v", dec, err)
	}

	reqs := []scenario.Request{
		videoRequest("pb0", 1, 0, 2, 0),
		videoRequest("held", 1, 1, 2, 0), // duplicate id: per-member error
		videoRequest("pb2", 2, 0, 0, 1),
		videoRequest("pb3", 1, 2, 2, 1),
	}
	decs, err := client.PreviewBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(decs) != len(reqs) {
		t.Fatalf("%d decisions for %d requests", len(decs), len(reqs))
	}
	for i, dec := range decs {
		if i == 1 {
			if dec.Error == "" {
				t.Errorf("member 1 (duplicate id) has no per-member error: %+v", dec)
			}
			continue
		}
		if dec.Error != "" {
			t.Errorf("member %d failed: %s", i, dec.Error)
			continue
		}
		if !dec.Admitted {
			t.Errorf("member %d rejected: %s", i, dec.Reason)
		}
		if dec.HSMillis <= 0 {
			t.Errorf("member %d HS %v, want > 0", i, dec.HSMillis)
		}
	}
	if got := pipe.Active(); got != 1 {
		t.Errorf("previewBatch changed server state: %d active, want 1", got)
	}
}

// TestPreviewBatchValidation checks the request-level gates: an empty batch
// and an invalid member are both rejected before evaluation.
func TestPreviewBatchValidation(t *testing.T) {
	client, _, _ := startShardedSignalingServer(t, nil)

	if _, err := client.PreviewBatch(nil); err == nil {
		t.Error("empty batch accepted")
	}
	bad := videoRequest("bad", 0, 0, 1, 0)
	bad.Source.Type = "" // invalid spec: no traffic descriptor
	if _, err := client.PreviewBatch([]scenario.Request{videoRequest("ok", 0, 0, 1, 0), bad}); err == nil {
		t.Error("batch with an invalid member accepted")
	}
}

// TestShardedAuditReplayAsyncWriter is the replay invariant through the
// full async path: a workload of admits, previews, batched previews, and
// releases against the sharded server, audited via the AsyncAuditWriter,
// must produce a log that replays to the identical admitted state.
func TestShardedAuditReplayAsyncWriter(t *testing.T) {
	var buf bytes.Buffer
	client, pipe, writer := startShardedSignalingServer(t, &buf)

	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("ra%d", i)
		if _, err := client.Admit(videoRequest(id, i%3, i/3, (i+1)%3, 0)); err != nil {
			t.Fatalf("admit %s: %v", id, err)
		}
	}
	// A rejection: the source host of ra0 is busy.
	if dec, err := client.Admit(videoRequest("busy", 0, 0, 2, 0)); err != nil || dec.Admitted {
		t.Fatalf("busy admit: %+v, %v", dec, err)
	}
	// Previews, single and batched — replay must skip all of them.
	if _, err := client.Preview(videoRequest("pv", 2, 2, 0, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := client.PreviewBatch([]scenario.Request{
		videoRequest("pb-a", 2, 2, 0, 2),
		videoRequest("pb-b", 2, 3, 1, 2),
	}); err != nil {
		t.Fatal(err)
	}
	// Releases: one real, one absent.
	if rel, err := client.Release("ra1"); err != nil || !rel {
		t.Fatalf("release ra1: %v, %v", rel, err)
	}
	if rel, err := client.Release("ghost"); err != nil || rel {
		t.Fatalf("release ghost: %v, %v", rel, err)
	}

	// Drain the audit stream, then replay it into a fresh serialized
	// controller — the cross-pipeline form of the invariant.
	writer.Flush()
	records, err := obs.ReadAuditRecords(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("audit log unreadable: %v", err)
	}
	batched := 0
	for _, rec := range records {
		if rec.Op == string(OpPreviewBatch) {
			batched++
		}
	}
	if batched != 2 {
		t.Errorf("%d previewBatch records, want 2 (one per member)", batched)
	}
	ctl, err := core.NewController(mustNetwork(t), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Replay(ctl, records)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if stats.Admits != 6 || stats.Releases != 1 {
		t.Errorf("replay stats: %+v, want 6 admits and 1 release", stats)
	}
	want := map[string][2]float64{}
	for _, c := range pipe.Connections() {
		want[c.ID] = [2]float64{c.HS, c.HR}
	}
	got := map[string][2]float64{}
	for _, c := range ctl.Connections() {
		got[c.ID] = [2]float64{c.HS, c.HR}
	}
	if len(got) != len(want) {
		t.Fatalf("replay rebuilt %d connections, server holds %d", len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Errorf("id %s admitted server-side but missing from the replay", id)
			continue
		}
		if !units.AlmostEq(w[0], g[0]) || !units.AlmostEq(w[1], g[1]) {
			t.Errorf("id %s allocations diverged: server HS=%v HR=%v, replay HS=%v HR=%v",
				id, w[0], w[1], g[0], g[1])
		}
	}
}
