// Package signaling provides the connection-establishment service on top of
// the admission controller: hosts send admit/release requests to a CAC
// daemon over TCP and receive the decision — allocations, worst-case delay,
// or the rejection reason.
//
// # Wire format
//
// The protocol is newline-delimited JSON over a plain TCP connection: the
// client writes one Request object per line and reads one Response object
// per line, strictly alternating, so it can be exercised with nothing but
// netcat:
//
//	$ nc localhost 4710
//	{"op":"admit","admit":{"id":"v1","srcRing":0,"srcHost":0,"dstRing":1,"dstHost":0,"deadlineMillis":60,"source":{"type":"dualPeriodic","c1Kbit":50,"p1Millis":10,"c2Kbit":10,"p2Millis":1}}}
//	{"ok":true,"op":"admit","decision":{"admitted":true,...}}
//
// Every response carries:
//
//   - "ok": whether the operation executed. A CAC rejection still has
//     ok=true — the protocol worked; the decision says no. ok=false means
//     the request itself failed (unknown op, missing body, invalid spec,
//     controller error) and "error" holds the failure text.
//   - "op": the request's op echoed back verbatim, so a client batching
//     requests over one connection can correlate responses without
//     counting lines. Blank in exactly one case: a request whose JSON
//     could not be parsed at all.
//
// Both sides write each message as json.Marshal would, byte for byte
// (fields in declaration order, omitempty, HTML-escaped strings, ES6
// floats), from hand-written encoders, and read the compact form those
// encoders write without reflection. Any other valid JSON is still
// accepted, with the values and errors encoding/json gives it: whitespace,
// keys in another case, null, a repeated key. At the first byte
// outside the compact form a connection's reader hands every byte it has
// not decoded, and the rest of the stream, to a json.Decoder, which reads
// that connection from then on. Either way a request is answered as soon
// as its closing brace arrives, newline or not.
//
// A connection may issue any number of sequential request/response pairs.
// After a malformed-JSON request the server still answers — with ok=false
// and "error" describing the parse failure — but then closes the
// connection: the stream position after a JSON syntax error is undefined,
// so resynchronization is impossible and the client must redial.
//
// Units on the wire are human-friendly (milliseconds, kbit) and carry their
// unit in the field name; the engine's own records (e.g. the audit log) use
// base seconds/bits instead.
//
// # Retry safety
//
// The protocol has no request ids or transactions, so retry safety is a
// property of each operation, and [Client] enforces it:
//
//   - OpPreview, OpPreviewBatch, OpReport and OpBuffers are pure reads:
//     safe to repeat any number of times.
//   - OpRelease is idempotent by design — releasing an id that holds
//     nothing succeeds with released=false. This makes release the
//     universal resolver for ambiguity: one successful release round trip
//     proves the id is not admitted, whatever happened before.
//   - OpAdmit commits bandwidth on success, so a lost response is
//     ambiguous: the decision may or may not have been made. A client may
//     resend an admit only while every previous attempt is confirmed
//     unsent (zero bytes reached the transport); beyond that point the
//     failure must surface as [ErrPossiblyCommitted] and be resolved with
//     a release, never a blind resend.
//
// An ok=false response is a delivered answer, not a transport failure:
// repeating the request would repeat the same error, so no operation is
// retried after one.
package signaling

import (
	"fmt"

	"fafnet/internal/core"
	"fafnet/internal/scenario"
)

// Op names a request operation.
type Op string

// Supported operations. Retry safety per op is documented in the package
// comment ("Retry safety").
const (
	// OpAdmit runs the CAC and commits on success. NOT idempotent: resend
	// only while confirmed unsent, resolve ambiguity with OpRelease.
	OpAdmit Op = "admit"
	// OpPreview runs the CAC without committing. Idempotent.
	OpPreview Op = "preview"
	// OpPreviewBatch runs the CAC over a whole batch of candidates in one
	// round trip, committing nothing. The server evaluates members in
	// request order, and its verdict cache answers every member after the
	// first of its specification class, so a class costs one analysis;
	// responses stay in request order. Idempotent (pure read), like
	// OpPreview.
	OpPreviewBatch Op = "previewBatch"
	// OpRelease tears a connection down. Idempotent: releasing an unknown
	// id succeeds with released=false.
	OpRelease Op = "release"
	// OpReport returns every admitted connection's worst-case delay.
	// Idempotent (pure read).
	OpReport Op = "report"
	// OpBuffers returns Theorem 1 buffer requirements. Idempotent (pure
	// read).
	OpBuffers Op = "buffers"
)

// Request is one client request.
type Request struct {
	// Op selects the operation.
	Op Op `json:"op"`
	// Admit carries the connection specification for OpAdmit/OpPreview,
	// reusing the scenario schema (kbit/ms units).
	Admit *scenario.Request `json:"admit,omitempty"`
	// AdmitBatch carries the specifications for OpPreviewBatch, at most
	// MaxBatch entries.
	AdmitBatch []scenario.Request `json:"admitBatch,omitempty"`
	// Release names the connection for OpRelease.
	Release string `json:"release,omitempty"`
}

// MaxBatch bounds an OpPreviewBatch request: large enough to amortize the
// round trip and the JSON framing, small enough that one request cannot
// monopolize the daemon or balloon a single wire line.
const MaxBatch = 1024

// Validate checks structural consistency before hitting the controller.
func (r Request) Validate() error {
	_, _, err := r.specs(false)
	return err
}

// specs validates r, building the connection specification of each admit
// body once: spec for OpAdmit and OpPreview, and for OpPreviewBatch, when
// keep is set, batch in member order.
func (r Request) specs(keep bool) (spec core.ConnSpec, batch []core.ConnSpec, err error) {
	switch r.Op {
	case OpAdmit, OpPreview:
		if r.Admit == nil {
			return spec, nil, fmt.Errorf("signaling: %s requires an admit body", r.Op)
		}
		spec, err = r.Admit.Spec()
		return spec, nil, err
	case OpPreviewBatch:
		if len(r.AdmitBatch) == 0 {
			return spec, nil, fmt.Errorf("signaling: previewBatch requires at least one admit body")
		}
		if len(r.AdmitBatch) > MaxBatch {
			return spec, nil, fmt.Errorf("signaling: previewBatch of %d exceeds the maximum of %d", len(r.AdmitBatch), MaxBatch)
		}
		if keep {
			batch = make([]core.ConnSpec, len(r.AdmitBatch))
		}
		for i := range r.AdmitBatch {
			member, err := r.AdmitBatch[i].Spec()
			if err != nil {
				return spec, nil, fmt.Errorf("signaling: previewBatch entry %d: %w", i, err)
			}
			if keep {
				batch[i] = member
			}
		}
		return spec, batch, nil
	case OpRelease:
		if r.Release == "" {
			return spec, nil, fmt.Errorf("signaling: release requires a connection id")
		}
	case OpReport, OpBuffers:
		// No body.
	default:
		return spec, nil, fmt.Errorf("signaling: unknown op %q", r.Op)
	}
	return spec, nil, nil
}

// Decision is the wire form of a CAC decision (times in milliseconds, the
// protocol's human-friendly unit).
type Decision struct {
	Admitted       bool    `json:"admitted"`
	Reason         string  `json:"reason"`
	HSMillis       float64 `json:"hsMillis,omitempty"`
	HRMillis       float64 `json:"hrMillis,omitempty"`
	DelayMillis    float64 `json:"delayMillis,omitempty"`
	DeadlineMillis float64 `json:"deadlineMillis,omitempty"`
	Probes         int     `json:"probes"`
	// Error carries a per-member failure inside an OpPreviewBatch response
	// (for example a duplicate id); the batch as a whole still succeeds.
	// Always empty for single-decision responses, which report failures
	// through the response's ok/error fields instead.
	Error string `json:"error,omitempty"`
}

// ConnReport is one admitted connection's state in an OpReport response.
type ConnReport struct {
	ID             string  `json:"id"`
	Src            string  `json:"src"`
	Dst            string  `json:"dst"`
	DelayMillis    float64 `json:"delayMillis"`
	DeadlineMillis float64 `json:"deadlineMillis"`
}

// BufferReport is one connection's entry in an OpBuffers response.
type BufferReport struct {
	ID      string  `json:"id"`
	SrcKbit float64 `json:"srcKbit"`
	DstKbit float64 `json:"dstKbit"`
}

// Response is one server reply.
type Response struct {
	// OK reports whether the operation executed (a CAC rejection still has
	// OK=true: the protocol worked; the decision says no).
	OK bool `json:"ok"`
	// Op echoes the request's op so clients can correlate responses. It is
	// blank only when the request's JSON could not be parsed.
	Op Op `json:"op"`
	// Error carries the failure text when OK is false.
	Error string `json:"error,omitempty"`
	// Decision is present for OpAdmit/OpPreview.
	Decision *Decision `json:"decision,omitempty"`
	// Decisions is present for OpPreviewBatch, one entry per batch member
	// in request order.
	Decisions []*Decision `json:"decisions,omitempty"`
	// Released reports whether OpRelease found the connection.
	Released *bool `json:"released,omitempty"`
	// Report is present for OpReport.
	Report []ConnReport `json:"report,omitempty"`
	// Buffers is present for OpBuffers.
	Buffers []BufferReport `json:"buffers,omitempty"`
}

// wireBatchDecision converts one batch member's outcome, folding a
// per-member failure into the decision so the response stays positional.
func wireBatchDecision(spec core.ConnSpec, dec core.Decision, err error) Decision {
	if err != nil {
		return Decision{Reason: dec.Reason, Error: err.Error()}
	}
	return wireDecision(spec, dec)
}

// wireDecision converts a core decision.
func wireDecision(spec core.ConnSpec, dec core.Decision) Decision {
	out := Decision{
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
