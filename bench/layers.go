package main

import (
	"encoding/json"
	"errors"
	"fmt"

	"fafnet/internal/core"
	"fafnet/internal/obs"
	"fafnet/internal/scenario"
	"fafnet/internal/signaling"
)

// toWire converts a core decision to the wire form, as the server does.
func toWire(spec core.ConnSpec, dec core.Decision, err error) *signaling.Decision {
	if err != nil {
		return &signaling.Decision{Reason: dec.Reason, Error: err.Error()}
	}
	out := &signaling.Decision{
		Admitted:       dec.Admitted,
		Reason:         dec.Reason,
		Probes:         dec.Probes,
		DeadlineMillis: spec.Deadline * 1e3,
	}
	if dec.Admitted {
		out.HSMillis = dec.HS * 1e3
		out.HRMillis = dec.HR * 1e3
		out.DelayMillis = dec.Delays[spec.ID] * 1e3
	}
	return out
}

// layered is the in-process backend of the layer pass: it takes each op
// through the same steps a wire round trip takes — encode the request,
// decode and validate it, convert it to a core spec, decide on the sharded
// pipeline (enqueueing the audit record from inside the commit section, as
// the server does), encode the response, decode it — with one bench-side
// span per step and no transport between them. What a step costs here
// against what the round trip costs on the wire is the reconciling budget.
type layered struct {
	pipe  *core.Sharded
	audit *obs.AsyncAuditWriter // nil when the workload runs unaudited

	tr          *tracer
	parent, seq int
}

func (l *layered) onCall(parent, seq int) { l.parent, l.seq = parent, seq }

func (l *layered) span(layer, name string) int {
	return l.tr.begin(l.parent, l.seq, layer, name)
}

// roundTrip is one request through every layer.
func (l *layered) roundTrip(req signaling.Request) (signaling.Response, error) {
	sp := l.span("signaling", "encode_request")
	line, err := json.Marshal(req)
	l.tr.end(sp)
	if err != nil {
		return signaling.Response{}, err
	}

	sp = l.span("signaling", "decode_request")
	var got signaling.Request
	if err = json.Unmarshal(line, &got); err == nil {
		err = got.Validate()
	}
	l.tr.end(sp)
	if err != nil {
		return signaling.Response{}, err
	}

	resp := l.execute(got)
	resp.Op = got.Op

	sp = l.span("signaling", "encode_response")
	line, err = json.Marshal(resp)
	l.tr.end(sp)
	if err != nil {
		return signaling.Response{}, err
	}

	sp = l.span("signaling", "decode_response")
	var back signaling.Response
	err = json.Unmarshal(line, &back)
	l.tr.end(sp)
	switch {
	case err != nil:
		return signaling.Response{}, err
	case back.Op != req.Op:
		return back, fmt.Errorf("op echoed as %q, sent %q", back.Op, req.Op)
	case !back.OK:
		return back, &signaling.ServerError{Msg: back.Error}
	}
	return back, nil
}

// execute mirrors the server's sharded dispatch for the ops the workloads
// issue.
func (l *layered) execute(req signaling.Request) signaling.Response {
	switch req.Op {
	case signaling.OpAdmit, signaling.OpPreview:
		sp := l.span("scenario", "spec")
		spec, err := req.Admit.Spec()
		l.tr.end(sp)
		if err != nil {
			return signaling.Response{Error: err.Error()}
		}
		sp = l.span("core", "sharded_decide")
		var record func(core.Decision, error)
		if l.audit != nil {
			record = func(dec core.Decision, opErr error) { l.enqueue(sp, string(req.Op), spec, dec, opErr) }
		}
		var dec core.Decision
		if req.Op == signaling.OpAdmit {
			dec, err = l.pipe.RequestAdmissionAudited(spec, record)
		} else {
			dec, err = l.pipe.PreviewAdmissionAudited(spec, record)
		}
		l.tr.end(sp)
		if err != nil {
			return signaling.Response{Error: err.Error()}
		}
		return signaling.Response{OK: true, Decision: toWire(spec, dec, nil)}
	case signaling.OpPreviewBatch:
		specs := make([]core.ConnSpec, len(req.AdmitBatch))
		sp := l.span("scenario", "spec")
		for i := range req.AdmitBatch {
			spec, err := req.AdmitBatch[i].Spec()
			if err != nil {
				l.tr.end(sp)
				return signaling.Response{Error: err.Error()}
			}
			specs[i] = spec
		}
		l.tr.end(sp)
		sp = l.span("core", "sharded_decide")
		var record func(int, core.Decision, error)
		if l.audit != nil {
			record = func(i int, dec core.Decision, opErr error) {
				l.enqueue(sp, string(req.Op), specs[i], dec, opErr)
			}
		}
		results := l.pipe.PreviewAdmissionBatch(specs, record)
		l.tr.end(sp)
		decs := make([]*signaling.Decision, len(results))
		for i, r := range results {
			decs[i] = toWire(specs[i], r.Decision, r.Err)
		}
		return signaling.Response{OK: true, Decisions: decs}
	case signaling.OpRelease:
		sp := l.span("core", "sharded_release")
		var record func(bool)
		if l.audit != nil {
			record = func(found bool) {
				q := l.tr.begin(sp, l.seq, "obs", "audit_enqueue")
				l.audit.Enqueue(obs.AuditRecord{Op: string(req.Op), ConnID: req.Release, Released: &found})
				l.tr.end(q)
			}
		}
		found := l.pipe.ReleaseAudited(req.Release, record)
		l.tr.end(sp)
		return signaling.Response{OK: true, Released: &found}
	default:
		return signaling.Response{Error: fmt.Sprintf("layer pass does not issue %q", req.Op)}
	}
}

// enqueue builds the decision's audit record the way the server does and
// hands it to the async writer, as a child span of the decide step.
func (l *layered) enqueue(parent int, op string, spec core.ConnSpec, dec core.Decision, opErr error) {
	q := l.tr.begin(parent, l.seq, "obs", "audit_enqueue")
	l.audit.Enqueue(auditRecord(op, spec, dec, opErr))
	l.tr.end(q)
}

// auditRecord is the bench's copy of the server's decision record.
func auditRecord(op string, spec core.ConnSpec, dec core.Decision, opErr error) obs.AuditRecord {
	rec := obs.AuditRecord{
		Op:              op,
		ConnID:          spec.ID,
		Admitted:        dec.Admitted,
		Reason:          dec.Reason,
		Beta:            0.5,
		DeadlineSeconds: spec.Deadline,
		Probes:          dec.Probes,
		Cache: &obs.CacheCounts{
			Stage0Hits: dec.Cache.Stage0Hits, Stage0Misses: dec.Cache.Stage0Misses,
			MACHits: dec.Cache.MACHits, MACMisses: dec.Cache.MACMisses,
		},
	}
	if opErr != nil {
		rec.Error = opErr.Error()
	}
	if dec.Admitted {
		rec.HSSeconds, rec.HRSeconds = dec.HS, dec.HR
		if bd := dec.Stages; bd != nil {
			st := &obs.StageDelays{
				SrcMACSeconds: bd.SrcMAC, ShaperSeconds: bd.Shaper, DstMACSeconds: bd.DstMAC,
				ConstantSeconds: bd.Constant, TotalSeconds: bd.Total,
			}
			for _, p := range bd.Ports {
				st.PortSeconds = append(st.PortSeconds, p.Delay)
			}
			rec.Stages = st
		}
	}
	return rec
}

func (l *layered) Admit(req scenario.Request) (signaling.Decision, error) {
	return l.decision(signaling.Request{Op: signaling.OpAdmit, Admit: &req})
}

func (l *layered) Preview(req scenario.Request) (signaling.Decision, error) {
	return l.decision(signaling.Request{Op: signaling.OpPreview, Admit: &req})
}

func (l *layered) decision(req signaling.Request) (signaling.Decision, error) {
	resp, err := l.roundTrip(req)
	if err != nil {
		return signaling.Decision{}, err
	}
	if resp.Decision == nil {
		return signaling.Decision{}, errors.New("response carries no decision")
	}
	return *resp.Decision, nil
}

func (l *layered) PreviewBatch(reqs []scenario.Request) ([]signaling.Decision, error) {
	resp, err := l.roundTrip(signaling.Request{Op: signaling.OpPreviewBatch, AdmitBatch: reqs})
	if err != nil {
		return nil, err
	}
	if len(resp.Decisions) != len(reqs) {
		return nil, fmt.Errorf("%d decisions for a batch of %d", len(resp.Decisions), len(reqs))
	}
	out := make([]signaling.Decision, len(reqs))
	for i, d := range resp.Decisions {
		if d == nil {
			return nil, fmt.Errorf("batch response is missing decision %d", i)
		}
		out[i] = *d
	}
	return out, nil
}

func (l *layered) Release(id string) (bool, error) {
	resp, err := l.roundTrip(signaling.Request{Op: signaling.OpRelease, Release: id})
	if err != nil {
		return false, err
	}
	if resp.Released == nil {
		return false, errors.New("response carries no release status")
	}
	return *resp.Released, nil
}

// coreBackend runs ops straight into an admission controller: no codec, no
// dispatch, no audit. The churn sequence over it is core.admit_direct_us
// (Sharded) and core.controller_admit_us (the serialized Controller).
type coreBackend struct {
	admit   func(core.ConnSpec) (core.Decision, error)
	preview func(core.ConnSpec) (core.Decision, error)
	release func(string) bool
}

func (c coreBackend) decide(f func(core.ConnSpec) (core.Decision, error), req scenario.Request) (signaling.Decision, error) {
	spec, err := req.Spec()
	if err != nil {
		return signaling.Decision{}, err
	}
	dec, err := f(spec)
	if err != nil {
		return signaling.Decision{}, err
	}
	return *toWire(spec, dec, nil), nil
}

func (c coreBackend) Admit(req scenario.Request) (signaling.Decision, error) {
	return c.decide(c.admit, req)
}

func (c coreBackend) Preview(req scenario.Request) (signaling.Decision, error) {
	return c.decide(c.preview, req)
}

func (c coreBackend) PreviewBatch([]scenario.Request) ([]signaling.Decision, error) {
	return nil, errors.New("coreBackend does not batch")
}

func (c coreBackend) Release(id string) (bool, error) { return c.release(id), nil }
