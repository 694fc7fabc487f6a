package signaling

import "fafnet/internal/obs"

// opInvalid labels metrics for requests whose op is unknown or whose JSON
// could not be parsed.
const opInvalid = "invalid"

// Per-op metric children, registered eagerly at init so every op appears in
// a /metrics scrape (with value 0) from process start. The maps are written
// only during init and read concurrently afterwards.
var (
	mRequests  = make(map[string]*obs.Counter)
	mErrors    = make(map[string]*obs.Counter)
	mOpSeconds = make(map[string]*obs.Histogram)
)

func init() {
	const (
		reqHelp = "Requests received by operation."
		errHelp = "Requests that failed with a protocol or controller error, by operation."
		latHelp = "Wall time of one request execution by operation."
	)
	ops := []string{
		string(OpAdmit), string(OpPreview), string(OpPreviewBatch),
		string(OpRelease), string(OpReport), string(OpBuffers), opInvalid,
	}
	for _, op := range ops {
		mRequests[op] = obs.Default.Counter("fafnet_signaling_requests_total", reqHelp, "op", op)
		mErrors[op] = obs.Default.Counter("fafnet_signaling_errors_total", errHelp, "op", op)
		mOpSeconds[op] = obs.Default.Histogram("fafnet_signaling_op_seconds", latHelp, obs.LatencyBuckets(), "op", op)
	}
}

// opLabel maps a request op onto its metric label, folding unknown ops into
// opInvalid so a misbehaving client cannot mint metric children.
func opLabel(op Op) string {
	if _, ok := mRequests[string(op)]; ok {
		return string(op)
	}
	return opInvalid
}

// mAuditRecords counts what the server queued; what reached the file, and what
// failed to, is the writer's to count (fafnet_audit_async_*).
var mAuditRecords = obs.Default.Counter("fafnet_signaling_audit_records_total",
	"Audit records handed to the audit writer.")

// Connection-lifecycle and shutdown metrics.
var (
	gOpenConns = obs.Default.Gauge("fafnet_signaling_open_connections",
		"Client connections currently registered with the server.")
	mIdleClosed = obs.Default.Counter("fafnet_signaling_idle_closed_total",
		"Connections closed for exceeding the idle timeout.")
	mForceClosed = obs.Default.Counter("fafnet_signaling_drain_force_closed_total",
		"Connections force-closed because the drain deadline expired with their request still in flight.")
	mAcceptRetries = obs.Default.Counter("fafnet_signaling_accept_retries_total",
		"Temporary accept failures survived by the accept loop's backoff.")
)

// Crash-recovery (audit replay) counters.
var (
	mReplayRecords = obs.Default.Counter("fafnet_signaling_replay_records_total",
		"Audit records applied during a -recover replay (admits re-run plus releases re-applied).")
	mReplaySkipped = obs.Default.Counter("fafnet_signaling_replay_skipped_total",
		"Audit records skipped during a -recover replay (previews, rejections, and errored operations change no state).")
)
