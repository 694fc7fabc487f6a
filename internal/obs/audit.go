package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"fafnet/internal/jsonwire"
)

// An AuditRecord is one line of the admission audit log: the full story of
// one admit, preview or release decision. It carries everything needed to
// answer "why was this connection (not) admitted" after the fact — the
// decision, the CAC's β, the chosen allocations, the Eq. 7 per-stage delay
// decomposition, the probe count, and the cache hit/miss counts for that
// decision — plus the original request body so a log can be replayed
// against a fresh controller and checked for identical outcomes.
//
// All durations are in seconds, matching the analysis engine's base unit
// (the wire protocol's milliseconds are a presentation choice; the audit
// log is an engineering record).
type AuditRecord struct {
	// TimeUnixNanos is the wall-clock stamp of the decision. Append fills
	// it when zero.
	TimeUnixNanos int64 `json:"timeUnixNanos"`
	// Op is the operation: "admit", "preview" or "release".
	Op string `json:"op"`
	// ConnID is the connection the operation targeted.
	ConnID string `json:"connId"`
	// Admitted reports the CAC decision for admit/preview ops.
	Admitted bool `json:"admitted"`
	// Reason is the rejection reason when Admitted is false.
	Reason string `json:"reason,omitempty"`
	// Error is set when the operation failed before reaching a decision
	// (validation or topology errors).
	Error string `json:"error,omitempty"`
	// Beta is the controller's allocation-interpolation parameter.
	Beta float64 `json:"beta"`
	// HSSeconds and HRSeconds are the chosen synchronous allocations per
	// rotation (admitted connections only).
	HSSeconds float64 `json:"hsSeconds,omitempty"`
	HRSeconds float64 `json:"hrSeconds,omitempty"`
	// DeadlineSeconds is the connection's required delay bound.
	DeadlineSeconds float64 `json:"deadlineSeconds,omitempty"`
	// Probes counts feasibility probes the decision consumed.
	Probes int `json:"probes,omitempty"`
	// Stages is the Eq. 7 worst-case delay decomposition at the chosen
	// allocation (admitted connections only).
	Stages *StageDelays `json:"stages,omitempty"`
	// Cache counts the analyzer cache traffic this decision generated.
	Cache *CacheCounts `json:"cache,omitempty"`
	// Released reports whether a release op found its connection.
	Released *bool `json:"released,omitempty"`
	// Request is the original wire request body (admit/preview only),
	// kept verbatim so the log replays.
	Request json.RawMessage `json:"request,omitempty"`
}

// StageDelays is the audit-log form of the Eq. 7 delay decomposition: the
// worst-case delay contributed by each server on the path, in seconds.
type StageDelays struct {
	// SrcMACSeconds is the Theorem 1 delay at the sender's FDDI MAC.
	SrcMACSeconds float64 `json:"srcMacSeconds"`
	// ShaperSeconds is the ingress regulator delay (zero when unshaped).
	ShaperSeconds float64 `json:"shaperSeconds"`
	// PortSeconds lists each shared FIFO port's queueing delay in
	// traversal order.
	PortSeconds []float64 `json:"portSeconds,omitempty"`
	// DstMACSeconds is the Theorem 1 delay at the receiving interface
	// device's MAC.
	DstMACSeconds float64 `json:"dstMacSeconds"`
	// ConstantSeconds sums the fixed-latency stages.
	ConstantSeconds float64 `json:"constantSeconds"`
	// TotalSeconds is the end-to-end worst case.
	TotalSeconds float64 `json:"totalSeconds"`
}

// CacheCounts is the audit-log form of the analyzer's per-decision cache
// statistics (see core.CacheStats).
type CacheCounts struct {
	// Stage0Hits and Stage0Misses count lookups of the cross-connection
	// stage-0 envelope cache.
	Stage0Hits   uint64 `json:"stage0Hits"`
	Stage0Misses uint64 `json:"stage0Misses"`
	// MACHits and MACMisses count lookups of the two-level MAC analysis
	// cache.
	MACHits   uint64 `json:"macHits"`
	MACMisses uint64 `json:"macMisses"`
}

// An AuditLog appends JSON-line audit records to a writer. Append encodes
// under a mutex and issues one Write per record, so records never
// interleave even when the writer is shared.
type AuditLog struct {
	mu sync.Mutex
	// w receives one Write per record. guarded by mu.
	w io.Writer
	// c closes the file Append opened, nil otherwise. guarded by mu.
	c io.Closer
	// buf holds the record being encoded, reused across appends. guarded
	// by mu.
	buf jsonwire.Buffer
}

// NewAuditLog wraps an arbitrary writer (a test buffer, stderr).
func NewAuditLog(w io.Writer) *AuditLog {
	return &AuditLog{w: w}
}

// OpenAuditLog opens (creating if needed) the file at path for appending.
// The file is opened with O_APPEND and written one record per Write call,
// which makes external log rotation safe: a copy-and-truncate rotation
// never tears a record, and a rename-based rotation keeps this handle
// writing whole records into the rotated file until the log is reopened.
func OpenAuditLog(path string) (*AuditLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: open audit log: %w", err)
	}
	return &AuditLog{w: f, c: f}, nil
}

// Append writes one record as a single JSON line, the bytes json.Marshal
// writes for it, stamping TimeUnixNanos if the caller left it zero.
func (l *AuditLog) Append(rec AuditRecord) error {
	if rec.TimeUnixNanos == 0 {
		rec.TimeUnixNanos = time.Now().UnixNano()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Reset()
	var line []byte
	if appendAuditRecord(&l.buf, &rec) {
		l.buf.Byte('\n')
		line = l.buf.Bytes()
	} else {
		// A float json.Marshal refuses, or a request body it must
		// compact, escape or refuse: its bytes, or its error.
		var err error
		if line, err = json.Marshal(rec); err != nil {
			return fmt.Errorf("obs: marshal audit record: %w", err)
		}
		line = append(line, '\n')
	}
	if _, err := l.w.Write(line); err != nil {
		return fmt.Errorf("obs: append audit record: %w", err)
	}
	return nil
}

// appendAuditRecord appends rec to w as json.Marshal encodes it, reporting
// false where the text would differ from json.Marshal's.
func appendAuditRecord(w *jsonwire.Buffer, rec *AuditRecord) bool {
	if len(rec.Request) > 0 && !jsonwire.Verbatim(rec.Request) {
		return false
	}
	w.Raw(`{"timeUnixNanos":`)
	w.Int(rec.TimeUnixNanos)
	w.Raw(`,"op":`)
	w.String(rec.Op)
	w.Raw(`,"connId":`)
	w.String(rec.ConnID)
	w.Raw(`,"admitted":`)
	w.Bool(rec.Admitted)
	w.OmitString(`,"reason":`, rec.Reason)
	w.OmitString(`,"error":`, rec.Error)
	w.Raw(`,"beta":`)
	w.Float(rec.Beta)
	w.OmitFloat(`,"hsSeconds":`, rec.HSSeconds)
	w.OmitFloat(`,"hrSeconds":`, rec.HRSeconds)
	w.OmitFloat(`,"deadlineSeconds":`, rec.DeadlineSeconds)
	if rec.Probes != 0 {
		w.Raw(`,"probes":`)
		w.Int(int64(rec.Probes))
	}
	if st := rec.Stages; st != nil {
		w.Raw(`,"stages":{"srcMacSeconds":`)
		w.Float(st.SrcMACSeconds)
		w.Raw(`,"shaperSeconds":`)
		w.Float(st.ShaperSeconds)
		if len(st.PortSeconds) > 0 {
			w.Raw(`,"portSeconds":[`)
			for i, d := range st.PortSeconds {
				if i > 0 {
					w.Byte(',')
				}
				w.Float(d)
			}
			w.Byte(']')
		}
		w.Raw(`,"dstMacSeconds":`)
		w.Float(st.DstMACSeconds)
		w.Raw(`,"constantSeconds":`)
		w.Float(st.ConstantSeconds)
		w.Raw(`,"totalSeconds":`)
		w.Float(st.TotalSeconds)
		w.Byte('}')
	}
	if c := rec.Cache; c != nil {
		w.Raw(`,"cache":{"stage0Hits":`)
		w.Uint(c.Stage0Hits)
		w.Raw(`,"stage0Misses":`)
		w.Uint(c.Stage0Misses)
		w.Raw(`,"macHits":`)
		w.Uint(c.MACHits)
		w.Raw(`,"macMisses":`)
		w.Uint(c.MACMisses)
		w.Byte('}')
	}
	if rec.Released != nil {
		w.Raw(`,"released":`)
		w.Bool(*rec.Released)
	}
	if len(rec.Request) > 0 {
		w.Raw(`,"request":`)
		w.RawBytes(rec.Request)
	}
	w.Byte('}')
	return w.OK()
}

// Sync flushes appended records to stable storage when the underlying
// writer supports it (an *os.File does); otherwise it is a no-op. A daemon
// calls this on shutdown so the audit tail survives a following crash or
// power loss — Append alone only guarantees the bytes reached the kernel.
func (l *AuditLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s, ok := l.w.(interface{ Sync() error }); ok {
		if err := s.Sync(); err != nil {
			return fmt.Errorf("obs: sync audit log: %w", err)
		}
	}
	return nil
}

// Close closes the underlying file, if Append opened one.
func (l *AuditLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.c == nil {
		return nil
	}
	err := l.c.Close()
	l.c = nil
	return err
}

// ReadAuditRecords parses a JSON-lines audit log back into records, in file
// order. A final line that is torn mid-record (the log's process crashed
// between the write starting and finishing, or the disk filled) is dropped
// silently: recovery prefers losing the one un-acknowledged record to
// refusing the whole log. A malformed record anywhere else is corruption
// and returns an error naming the line.
func ReadAuditRecords(r io.Reader) ([]AuditRecord, error) {
	br := bufio.NewReader(r)
	var records []AuditRecord
	for lineNo := 1; ; lineNo++ {
		line, err := br.ReadString('\n')
		atEOF := err == io.EOF
		if err != nil && !atEOF {
			return nil, fmt.Errorf("obs: read audit log line %d: %w", lineNo, err)
		}
		trimmed := strings.TrimSpace(line)
		if trimmed != "" {
			var rec AuditRecord
			if jsonErr := json.Unmarshal([]byte(trimmed), &rec); jsonErr != nil {
				if atEOF {
					return records, nil // torn tail from a crash mid-append
				}
				return nil, fmt.Errorf("obs: audit log line %d: %w", lineNo, jsonErr)
			}
			records = append(records, rec)
		}
		if atEOF {
			return records, nil
		}
	}
}
