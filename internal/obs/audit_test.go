package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"fafnet/internal/jsonwire"
)

func sampleRecord() AuditRecord {
	released := true
	return AuditRecord{
		Op:              "admit",
		ConnID:          "m1",
		Admitted:        true,
		Beta:            0.5,
		HSSeconds:       0.0004,
		HRSeconds:       0.0003,
		DeadlineSeconds: 0.1,
		Probes:          17,
		Stages: &StageDelays{
			SrcMACSeconds:   0.012,
			PortSeconds:     []float64{0.001, 0.002},
			DstMACSeconds:   0.011,
			ConstantSeconds: 0.0005,
			TotalSeconds:    0.0265,
		},
		Cache:    &CacheCounts{Stage0Hits: 3, Stage0Misses: 1, MACHits: 5, MACMisses: 2},
		Released: &released,
		Request:  json.RawMessage(`{"id":"m1"}`),
	}
}

func TestAuditAppendRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	log := NewAuditLog(&buf)
	if err := log.Append(sampleRecord()); err != nil {
		t.Fatal(err)
	}
	line := buf.Bytes()
	if line[len(line)-1] != '\n' {
		t.Fatal("record is not newline-terminated")
	}
	var got AuditRecord
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatalf("record is not valid JSON: %v\n%s", err, line)
	}
	if got.TimeUnixNanos == 0 {
		t.Error("Append left TimeUnixNanos unstamped")
	}
	if got.ConnID != "m1" || !got.Admitted || got.Probes != 17 {
		t.Errorf("round trip mangled the record: %+v", got)
	}
	if got.Stages == nil || got.Stages.TotalSeconds != 0.0265 || len(got.Stages.PortSeconds) != 2 {
		t.Errorf("round trip mangled the stage delays: %+v", got.Stages)
	}
	if got.Cache == nil || got.Cache.MACHits != 5 {
		t.Errorf("round trip mangled the cache counts: %+v", got.Cache)
	}
}

// TestAuditRecordEncoding pins Append's encoder to json.Marshal's bytes for
// a full record, and to no allocation once its buffer has grown.
func TestAuditRecordEncoding(t *testing.T) {
	rec := sampleRecord()
	rec.TimeUnixNanos = 1
	want, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var w jsonwire.Buffer
	if !appendAuditRecord(&w, &rec) || !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("encoded %s, json.Marshal %s", w.Bytes(), want)
	}
	if n := testing.AllocsPerRun(100, func() { w.Reset(); appendAuditRecord(&w, &rec) }); n != 0 {
		t.Errorf("encoding an audit record allocates %v times, want 0", n)
	}
}

func TestOpenAuditLogAppendsAcrossOpens(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	for i := 0; i < 2; i++ {
		log, err := OpenAuditLog(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := log.Append(AuditRecord{Op: "admit", ConnID: "m1"}); err != nil {
			t.Fatal(err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		if err := log.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec AuditRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", lines+1, err)
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("reopened log holds %d records, want 2 (append, not truncate)", lines)
	}
}

func TestReadAuditRecordsRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	log := NewAuditLog(&buf)
	for i := 0; i < 3; i++ {
		if err := log.Append(sampleRecord()); err != nil {
			t.Fatal(err)
		}
	}
	records, err := ReadAuditRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 {
		t.Fatalf("read %d records, want 3", len(records))
	}
	if records[0].ConnID != "m1" || records[0].Probes != 17 {
		t.Errorf("round trip mangled the record: %+v", records[0])
	}
}

func TestReadAuditRecordsDropsTornTail(t *testing.T) {
	var buf bytes.Buffer
	log := NewAuditLog(&buf)
	if err := log.Append(sampleRecord()); err != nil {
		t.Fatal(err)
	}
	// A crash mid-append leaves a partial record with no trailing newline.
	buf.WriteString(`{"op":"admit","connId":"tor`)
	records, err := ReadAuditRecords(&buf)
	if err != nil {
		t.Fatalf("torn tail should be tolerated, got %v", err)
	}
	if len(records) != 1 {
		t.Fatalf("read %d records, want the 1 intact one", len(records))
	}
}

func TestReadAuditRecordsRejectsCorruptMiddle(t *testing.T) {
	var buf bytes.Buffer
	log := NewAuditLog(&buf)
	if err := log.Append(sampleRecord()); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("not json\n")
	if err := log.Append(sampleRecord()); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAuditRecords(&buf); err == nil {
		t.Fatal("a corrupt record before the tail must be an error")
	}
}

func TestAuditSync(t *testing.T) {
	// Sync on a plain writer is a no-op; on a file it must succeed and the
	// synced bytes must be on disk for an independent reader.
	if err := NewAuditLog(&bytes.Buffer{}).Sync(); err != nil {
		t.Errorf("Sync on a buffer: %v", err)
	}
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	log, err := OpenAuditLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if err := log.Append(sampleRecord()); err != nil {
		t.Fatal(err)
	}
	if err := log.Sync(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	records, err := ReadAuditRecords(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 {
		t.Fatalf("synced log holds %d records, want 1", len(records))
	}
}

func TestAuditConcurrentAppendsDoNotInterleave(t *testing.T) {
	var buf bytes.Buffer
	log := NewAuditLog(&buf)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := log.Append(sampleRecord()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	lines := 0
	for sc.Scan() {
		var rec AuditRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("interleaved record at line %d: %v", lines+1, err)
		}
		lines++
	}
	if lines != 400 {
		t.Fatalf("log holds %d records, want 400", lines)
	}
}
