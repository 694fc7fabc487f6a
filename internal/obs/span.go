package obs

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// A Span measures the wall time of one named stage. It is a value type:
// Start and End allocate nothing, so spans can wrap hot paths unconditionally
// and cost two clock reads plus one atomic pointer load when no sink is
// installed.
//
// Span is also the module's sanctioned wall-clock access point for the
// simulator packages: the randsrc analyzer bans direct time.Now/time.Since
// there so that simulated time can never leak into results, but measuring
// how long a replication took is observation, not simulation input — those
// packages call Start/Seconds/End and the clock read happens here.
type Span struct {
	name  string
	start time.Time
}

// Start begins a span. The context is returned unchanged — it is accepted
// (and threaded through call chains) so the signature will not need to
// change if span parenting is ever added, but attaching the span to the
// context today would force an allocation the no-sink guarantee forbids.
func Start(ctx context.Context, name string) (context.Context, Span) {
	return ctx, Span{name: name, start: time.Now()}
}

// Seconds returns the wall time elapsed since Start, in seconds. It may be
// called before or after End.
func (s Span) Seconds() float64 {
	return time.Since(s.start).Seconds()
}

// End records the span into the installed sink, if any. Without a sink it
// is a single atomic load and a branch.
func (s Span) End() {
	if r := spanSink.Load(); r != nil {
		r.record(SpanRecord{Name: s.name, Seconds: time.Since(s.start).Seconds()})
	}
}

// spanSink is the process-wide span destination. nil means spans are
// dropped at End with no further work.
var spanSink atomic.Pointer[SpanRing]

// SetSpanSink installs r as the destination for ended spans; pass nil to
// drop spans again. Safe to call concurrently with End.
func SetSpanSink(r *SpanRing) {
	spanSink.Store(r)
}

// A SpanRecord is one completed span as stored in a ring.
type SpanRecord struct {
	// Name identifies the stage, e.g. "core.decide" or "sim.replication".
	Name string `json:"name"`
	// Seconds is the span's wall duration.
	Seconds float64 `json:"seconds"`
}

// A SpanRing keeps the most recent completed spans in a fixed-size buffer.
// It trades completeness for bounded memory: the daemon keeps the last few
// hundred stage timings inspectable at /debug/spans without ever growing.
type SpanRing struct {
	mu sync.Mutex
	// buf is the fixed-size span store. guarded by mu.
	buf []SpanRecord
	// next is the slot the next span lands in. guarded by mu.
	next int
	// full is set once the ring has wrapped. guarded by mu.
	full bool
}

// NewSpanRing returns a ring holding the last n spans. n must be positive.
func NewSpanRing(n int) *SpanRing {
	if n <= 0 {
		panic("obs: span ring capacity must be positive")
	}
	return &SpanRing{buf: make([]SpanRecord, n)}
}

// record appends one span, overwriting the oldest once full.
func (r *SpanRing) record(rec SpanRecord) {
	r.mu.Lock()
	r.buf[r.next] = rec
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Snapshot returns the buffered spans, oldest first.
func (r *SpanRing) Snapshot() []SpanRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]SpanRecord(nil), r.buf[:r.next]...)
	}
	out := make([]SpanRecord, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Handler returns an http.Handler serving the ring contents as a JSON
// array, oldest span first — the daemon's /debug/spans endpoint.
func (r *SpanRing) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		// An error here means the client hung up mid-response.
		_ = json.NewEncoder(w).Encode(r.Snapshot())
	})
}
