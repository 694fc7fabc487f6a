package signaling

import (
	"bytes"
	"sync"

	"fafnet/internal/core"
	"fafnet/internal/jsonwire"
	"fafnet/internal/obs"
	"fafnet/internal/scenario"
)

// SetAsyncAudit installs the admission audit sink: from now on every admit,
// preview and release operation enqueues one record to the writer. Safe to
// call concurrently with request handling. The caller owns the writer's
// lifecycle: Close it only after the server has drained (Shutdown returned),
// so no handler is still enqueuing. Pass nil to stop auditing.
func (s *Server) SetAsyncAudit(w *obs.AsyncAuditWriter) {
	s.asyncAudit.Store(w)
}

// auditEnabled reports whether the audit sink is installed.
func (s *Server) auditEnabled() bool {
	return s.asyncAudit.Load() != nil
}

// decisionRecord builds the audit record for one admit/preview outcome.
func (s *Server) decisionRecord(req Request, spec core.ConnSpec, dec core.Decision, opErr error) obs.AuditRecord {
	rec := obs.AuditRecord{
		Op:              string(req.Op),
		ConnID:          spec.ID,
		Admitted:        dec.Admitted,
		Reason:          dec.Reason,
		Beta:            s.opts.Beta,
		DeadlineSeconds: spec.Deadline,
		Probes:          dec.Probes,
		Cache:           auditCache(dec.Cache),
	}
	if opErr != nil {
		rec.Error = opErr.Error()
	}
	if dec.Admitted {
		rec.HSSeconds, rec.HRSeconds = dec.HS, dec.HR
		rec.Stages = auditStages(dec.Stages)
	}
	rec.Request = auditBody(req.Admit)
	return rec
}

// auditBody encodes an admit body for the audit log, the bytes json.Marshal
// writes for it, or nil where json.Marshal fails (a NaN or infinite field).
// Like json.Marshal, it encodes into a recycled buffer and copies the body
// out at its exact length.
func auditBody(a *scenario.Request) []byte {
	w := bodyBufs.Get().(*jsonwire.Buffer)
	defer bodyBufs.Put(w)
	w.Reset()
	appendAdmit(w, a)
	if !w.OK() {
		return nil
	}
	return bytes.Clone(w.Bytes())
}

// bodyBufs recycles the buffers audit request bodies are encoded in.
var bodyBufs = sync.Pool{New: func() any { return new(jsonwire.Buffer) }}

// releaseRecord builds the audit record for one release outcome.
func (s *Server) releaseRecord(id string, found bool) obs.AuditRecord {
	return obs.AuditRecord{
		Op:       string(OpRelease),
		ConnID:   id,
		Beta:     s.opts.Beta,
		Released: &found,
	}
}

// appendAudit hands one record to the installed sink. Called from the
// controller's commit callbacks, which run outside any server lock.
func (s *Server) appendAudit(rec obs.AuditRecord) {
	if w := s.asyncAudit.Load(); w != nil {
		w.Enqueue(rec)
		mAuditRecords.Inc()
	}
}

// auditStages converts the analysis-layer decomposition into the audit-log
// schema.
func auditStages(bd *core.Breakdown) *obs.StageDelays {
	if bd == nil {
		return nil
	}
	out := &obs.StageDelays{
		SrcMACSeconds:   bd.SrcMAC,
		ShaperSeconds:   bd.Shaper,
		DstMACSeconds:   bd.DstMAC,
		ConstantSeconds: bd.Constant,
		TotalSeconds:    bd.Total,
	}
	for _, p := range bd.Ports {
		out.PortSeconds = append(out.PortSeconds, p.Delay)
	}
	return out
}

// auditCache converts the analyzer's per-decision cache diff into the
// audit-log schema.
func auditCache(c core.CacheStats) *obs.CacheCounts {
	return &obs.CacheCounts{
		Stage0Hits:   c.Stage0Hits,
		Stage0Misses: c.Stage0Misses,
		MACHits:      c.MACHits,
		MACMisses:    c.MACMisses,
	}
}
