package signaling

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"fafnet/internal/core"
	"fafnet/internal/obs"
	"fafnet/internal/scenario"
	"fafnet/internal/topo"
	"fafnet/internal/units"
)

// auditTo installs the server's audit sink over log, the way fafcacd does,
// and closes the writer with the test. Flush it before reading the log back.
func auditTo(t *testing.T, srv *Server, log *obs.AuditLog) *obs.AsyncAuditWriter {
	t.Helper()
	writer := obs.NewAsyncAuditWriter(log, 0, false)
	srv.SetAsyncAudit(writer)
	t.Cleanup(func() { writer.Close() })
	return writer
}

// auditedServer is startServer plus a file-backed audit log behind the async
// writer; it returns a function that flushes the writer and reads back every
// record appended so far.
func auditedServer(t *testing.T) (*Client, func() []obs.AuditRecord) {
	t.Helper()
	client, srv := startServer(t)
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	log, err := obs.OpenAuditLog(path)
	if err != nil {
		t.Fatal(err)
	}
	writer := auditTo(t, srv, log)
	return client, func() []obs.AuditRecord {
		writer.Flush()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var recs []obs.AuditRecord
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			var rec obs.AuditRecord
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				t.Fatalf("audit line %d is not valid JSON: %v\n%s", len(recs)+1, err, sc.Text())
			}
			recs = append(recs, rec)
		}
		return recs
	}
}

func TestAuditRecordsWellFormed(t *testing.T) {
	client, records := auditedServer(t)

	if dec, err := client.Admit(videoRequest("v1", 0, 0, 1, 0)); err != nil || !dec.Admitted {
		t.Fatalf("admit: %+v, %v", dec, err)
	}
	tight := videoRequest("tight", 1, 0, 2, 0)
	tight.DeadlineMillis = 1
	if dec, err := client.Admit(tight); err != nil || dec.Admitted {
		t.Fatalf("impossible deadline: %+v, %v", dec, err)
	}
	if dec, err := client.Preview(videoRequest("p1", 1, 0, 2, 0)); err != nil || !dec.Admitted {
		t.Fatalf("preview: %+v, %v", dec, err)
	}
	if _, err := client.Admit(videoRequest("v1", 1, 0, 2, 0)); err == nil {
		t.Fatal("duplicate id should error")
	}
	if ok, err := client.Release("v1"); err != nil || !ok {
		t.Fatalf("release: %v, %v", ok, err)
	}
	if ok, err := client.Release("ghost"); err != nil || ok {
		t.Fatalf("release of unknown id: %v, %v", ok, err)
	}

	recs := records()
	if len(recs) != 6 {
		t.Fatalf("got %d audit records, want 6", len(recs))
	}
	for i, rec := range recs {
		if rec.TimeUnixNanos == 0 {
			t.Errorf("record %d: unstamped", i)
		}
		if rec.ConnID == "" {
			t.Errorf("record %d: no connection id", i)
		}
		if rec.Beta != 0.5 {
			t.Errorf("record %d: beta = %v, want the default 0.5", i, rec.Beta)
		}
	}

	admitted := recs[0]
	if admitted.Op != "admit" || !admitted.Admitted || admitted.Reason != core.ReasonAdmitted {
		t.Errorf("admitted record: %+v", admitted)
	}
	if admitted.HSSeconds <= 0 || admitted.HRSeconds <= 0 || admitted.Probes < 3 {
		t.Errorf("admitted record lacks allocations/probes: %+v", admitted)
	}
	if admitted.Stages == nil || admitted.Stages.TotalSeconds <= 0 {
		t.Errorf("admitted record lacks the stage decomposition: %+v", admitted.Stages)
	} else {
		sum := admitted.Stages.SrcMACSeconds + admitted.Stages.ShaperSeconds +
			admitted.Stages.DstMACSeconds + admitted.Stages.ConstantSeconds
		for _, p := range admitted.Stages.PortSeconds {
			sum += p
		}
		if !units.AlmostEq(sum, admitted.Stages.TotalSeconds) {
			t.Errorf("stage delays sum to %v, total says %v", sum, admitted.Stages.TotalSeconds)
		}
	}
	if admitted.Cache == nil || admitted.Cache.MACMisses == 0 {
		t.Errorf("admitted record lacks cache counts: %+v", admitted.Cache)
	}
	if len(admitted.Request) == 0 {
		t.Error("admitted record lacks the original request body")
	}

	rejected := recs[1]
	if rejected.Op != "admit" || rejected.Admitted || rejected.Reason == "" || rejected.Error != "" {
		t.Errorf("rejected record: %+v", rejected)
	}
	if rejected.Stages != nil {
		t.Errorf("rejected record carries stages: %+v", rejected.Stages)
	}

	preview := recs[2]
	if preview.Op != "preview" || !preview.Admitted || preview.Stages == nil {
		t.Errorf("preview record: %+v", preview)
	}

	dup := recs[3]
	if dup.Op != "admit" || dup.Admitted || dup.Error == "" {
		t.Errorf("duplicate-id record should carry an error: %+v", dup)
	}

	released := recs[4]
	if released.Op != "release" || released.ConnID != "v1" ||
		released.Released == nil || !*released.Released {
		t.Errorf("release record: %+v", released)
	}
	ghost := recs[5]
	if ghost.Op != "release" || ghost.Released == nil || *ghost.Released {
		t.Errorf("release-of-unknown record: %+v", ghost)
	}
}

// TestAuditLogReplays drives the acceptance criterion that an audit log
// replays to the same decisions: feeding each record's embedded request to
// a fresh controller reproduces every outcome and allocation.
func TestAuditLogReplays(t *testing.T) {
	client, records := auditedServer(t)
	reqs := []scenario.Request{
		videoRequest("a", 0, 0, 1, 0),
		videoRequest("b", 1, 0, 2, 0),
		videoRequest("c", 2, 0, 0, 1),
	}
	tight := videoRequest("d", 0, 1, 2, 1)
	tight.DeadlineMillis = 1
	reqs = append(reqs, tight)
	for _, r := range reqs {
		if _, err := client.Admit(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Release("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Admit(videoRequest("e", 1, 0, 2, 0)); err != nil {
		t.Fatal(err)
	}

	// Replay against a fresh controller.
	net0, err := topo.NewNetwork(topo.Default())
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := core.NewController(net0, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := records()
	if len(recs) != 6 {
		t.Fatalf("got %d audit records, want 6", len(recs))
	}
	for i, rec := range recs {
		switch rec.Op {
		case "admit":
			var sr scenario.Request
			if err := json.Unmarshal(rec.Request, &sr); err != nil {
				t.Fatalf("record %d: embedded request does not parse: %v", i, err)
			}
			spec, err := sr.Spec()
			if err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
			dec, err := ctl.RequestAdmission(spec)
			if err != nil {
				t.Fatalf("record %d: replay errored: %v", i, err)
			}
			if dec.Admitted != rec.Admitted {
				t.Errorf("record %d (%s): replay admitted=%v, log says %v", i, rec.ConnID, dec.Admitted, rec.Admitted)
			}
			if dec.Admitted && (!units.AlmostEq(dec.HS, rec.HSSeconds) || !units.AlmostEq(dec.HR, rec.HRSeconds)) {
				t.Errorf("record %d (%s): replay chose (%v, %v), log says (%v, %v)",
					i, rec.ConnID, dec.HS, dec.HR, rec.HSSeconds, rec.HRSeconds)
			}
		case "release":
			if found := ctl.Release(rec.ConnID); rec.Released != nil && found != *rec.Released {
				t.Errorf("record %d: replay release=%v, log says %v", i, found, *rec.Released)
			}
		default:
			t.Errorf("record %d: unexpected op %q", i, rec.Op)
		}
	}
}

func TestMalformedJSONGetsStructuredError(t *testing.T) {
	client, _ := startServer(t)
	conn, err := net.DialTimeout("tcp", client.conn.RemoteAddr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintln(conn, "{this is not json"); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := json.NewDecoder(conn).Decode(&resp); err != nil {
		t.Fatalf("no structured response to malformed JSON: %v", err)
	}
	if resp.OK || resp.Error == "" {
		t.Errorf("response = %+v, want ok=false with an error", resp)
	}
	// The server then closes the connection: the stream cannot resync.
	if err := json.NewDecoder(conn).Decode(&resp); err == nil {
		t.Error("connection stayed open after a parse failure")
	}
}

// TestMetricsScrapeDuringAdmissions hammers registry renders concurrently
// with admissions through the server — the race detector (make race) is the
// assertion, mirroring a Prometheus scraper hitting /metrics under load.
func TestMetricsScrapeDuringAdmissions(t *testing.T) {
	client, _ := startServer(t)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				if err := obs.Default.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("s%d", i)
		if _, err := client.Admit(videoRequest(id, i%3, 0, (i+1)%3, 0)); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Release(id); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}
