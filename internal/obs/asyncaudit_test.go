package obs

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// gatedBuffer is an in-memory audit sink whose writes can be held at a
// gate, letting tests force queue buildup deterministically.
type gatedBuffer struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	gate chan struct{} // nil = open; non-nil = every Write waits for one token
}

func (g *gatedBuffer) Write(p []byte) (int, error) {
	g.mu.Lock()
	gate := g.gate
	g.mu.Unlock()
	if gate != nil {
		<-gate
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.buf.Write(p)
}

func (g *gatedBuffer) records(t *testing.T) []AuditRecord {
	t.Helper()
	g.mu.Lock()
	data := append([]byte(nil), g.buf.Bytes()...)
	g.mu.Unlock()
	recs, err := ReadAuditRecords(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("audit log unreadable: %v", err)
	}
	return recs
}

// TestAsyncAuditOrderPreserved is the replay invariant at the writer level:
// enqueue order must equal file order, across many more records than one
// drain batch holds.
func TestAsyncAuditOrderPreserved(t *testing.T) {
	sink := &gatedBuffer{}
	w := NewAsyncAuditWriter(NewAuditLog(sink), 64, true)
	const n = 3 * asyncBatchMax
	for i := 0; i < n; i++ {
		w.Enqueue(AuditRecord{Op: "admit", ConnID: fmt.Sprintf("c%06d", i)})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs := sink.records(t)
	if len(recs) != n {
		t.Fatalf("%d records on disk, want %d", len(recs), n)
	}
	for i, rec := range recs {
		if want := fmt.Sprintf("c%06d", i); rec.ConnID != want {
			t.Fatalf("record %d is %s, want %s — enqueue order not preserved", i, rec.ConnID, want)
		}
	}
}

// TestAsyncAuditFlushCovers checks Flush's contract: every record enqueued
// before the call is on disk when Flush returns, while the writer keeps
// accepting records afterwards.
func TestAsyncAuditFlushCovers(t *testing.T) {
	sink := &gatedBuffer{}
	w := NewAsyncAuditWriter(NewAuditLog(sink), 0, false)
	for i := 0; i < 10; i++ {
		w.Enqueue(AuditRecord{Op: "admit", ConnID: fmt.Sprintf("f%d", i)})
	}
	w.Flush()
	if got := len(sink.records(t)); got != 10 {
		t.Fatalf("%d records after Flush, want 10", got)
	}
	w.Enqueue(AuditRecord{Op: "release", ConnID: "late"})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs := sink.records(t)
	if len(recs) != 11 || recs[10].ConnID != "late" {
		t.Fatalf("after Close: %d records, last %q; want 11 with last \"late\"", len(recs), recs[len(recs)-1].ConnID)
	}
}

// TestAsyncAuditBackpressureBlocks forces the queue full with the sink
// gated: Enqueue must block (never drop), count the backpressure, and every
// record must still land in order once the sink opens.
func TestAsyncAuditBackpressureBlocks(t *testing.T) {
	gate := make(chan struct{})
	sink := &gatedBuffer{gate: gate}
	before := mAuditBackpressure.Value()
	w := NewAsyncAuditWriter(NewAuditLog(sink), 1, false)

	const n = 6
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			w.Enqueue(AuditRecord{Op: "admit", ConnID: fmt.Sprintf("b%d", i)})
		}
	}()
	// Open the gate: one token per queued write until the producer finishes.
	for {
		select {
		case gate <- struct{}{}:
		case <-done:
			sink.mu.Lock()
			sink.gate = nil
			sink.mu.Unlock()
			close(gate)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			recs := sink.records(t)
			if len(recs) != n {
				t.Fatalf("%d records, want %d — backpressure dropped records", len(recs), n)
			}
			for i, rec := range recs {
				if want := fmt.Sprintf("b%d", i); rec.ConnID != want {
					t.Fatalf("record %d is %s, want %s", i, rec.ConnID, want)
				}
			}
			if mAuditBackpressure.Value() == before {
				t.Error("queue of 1 with a gated sink never counted backpressure")
			}
			return
		}
	}
}

// TestAsyncAuditEnqueueAfterClose checks the shutdown race contract: a
// record enqueued after Close still lands, via the synchronous fallback.
func TestAsyncAuditEnqueueAfterClose(t *testing.T) {
	sink := &gatedBuffer{}
	w := NewAsyncAuditWriter(NewAuditLog(sink), 0, true)
	w.Enqueue(AuditRecord{Op: "admit", ConnID: "early"})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w.Enqueue(AuditRecord{Op: "release", ConnID: "straggler"})
	recs := sink.records(t)
	if len(recs) != 2 || recs[1].ConnID != "straggler" {
		t.Fatalf("straggler record lost: %+v", recs)
	}
}

// TestAsyncAuditGroupSyncCounts checks the fsync batching arithmetic: n
// records through a live writer produce at least one group sync and far
// fewer syncs than records.
func TestAsyncAuditGroupSyncCounts(t *testing.T) {
	sink := &gatedBuffer{}
	syncsBefore := mAuditGroupSyncs.Value()
	writtenBefore := mAuditAsyncWritten.Value()
	w := NewAsyncAuditWriter(NewAuditLog(sink), 0, true)
	const n = 500
	for i := 0; i < n; i++ {
		w.Enqueue(AuditRecord{Op: "admit", ConnID: fmt.Sprintf("g%d", i)})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	written := mAuditAsyncWritten.Value() - writtenBefore
	syncs := mAuditGroupSyncs.Value() - syncsBefore
	if written != n {
		t.Fatalf("written counter %d, want %d", written, n)
	}
	if syncs == 0 {
		t.Fatal("group-sync mode issued no syncs")
	}
	if syncs >= written {
		t.Fatalf("%d syncs for %d records — no grouping happened", syncs, written)
	}
}

// TestAsyncAuditCloseStopsWriter requires the writer goroutine gone once
// Close returns, after records, a flush and a full queue's backpressure.
func TestAsyncAuditCloseStopsWriter(t *testing.T) {
	before := runtime.NumGoroutine()
	w := NewAsyncAuditWriter(NewAuditLog(&bytes.Buffer{}), 2, true)
	for i := 0; i < 8; i++ {
		w.Enqueue(sampleRecord())
	}
	w.Flush()
	closed := make(chan error, 1)
	go func() { closed <- w.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return: the writer goroutine never stopped")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before the writer, %d after Close\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
	}
}
