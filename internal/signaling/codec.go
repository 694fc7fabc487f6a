package signaling

import (
	"encoding/json"
	"io"

	"fafnet/internal/core"
	"fafnet/internal/jsonwire"
	"fafnet/internal/scenario"
)

// The wire's hand-written codec. Encoders write the bytes json.Marshal
// writes for the same value: fields in declaration order, omitempty
// honoured, strings and floats through jsonwire. Parsers accept exactly
// the compact form the encoders write (keys in any order, each at most
// once; null only as a batch decision) and build the value encoding/json
// would; anything else is refused and decoded by encoding/json instead
// (jsonwire.Reader).

// writeLine encodes v with enc and writes it and a newline in one Write,
// as json.Encoder.Encode does. When enc meets a value encoding/json
// refuses, json.Marshal runs instead, so its error is the one returned and
// nothing is written.
func writeLine[T any](dst io.Writer, buf *jsonwire.Buffer, v *T, enc func(*jsonwire.Buffer, *T)) error {
	buf.Reset()
	enc(buf, v)
	buf.Byte('\n')
	line := buf.Bytes()
	if !buf.OK() {
		var err error
		if line, err = json.Marshal(v); err != nil {
			return err
		}
		line = append(line, '\n')
	}
	_, err := dst.Write(line)
	return err
}

// appendRequest writes a Request as json.Marshal does.
func appendRequest(w *jsonwire.Buffer, r *Request) {
	w.Raw(`{"op":`)
	w.String(string(r.Op))
	if r.Admit != nil {
		w.Raw(`,"admit":`)
		appendAdmit(w, r.Admit)
	}
	if len(r.AdmitBatch) > 0 {
		w.Raw(`,"admitBatch":[`)
		for i := range r.AdmitBatch {
			if i > 0 {
				w.Byte(',')
			}
			appendAdmit(w, &r.AdmitBatch[i])
		}
		w.Byte(']')
	}
	if r.Release != "" {
		w.Raw(`,"release":`)
		w.String(r.Release)
	}
	w.Byte('}')
}

// appendAdmit writes a scenario.Request as json.Marshal does.
func appendAdmit(w *jsonwire.Buffer, r *scenario.Request) {
	w.Raw(`{"id":`)
	w.String(r.ID)
	w.Raw(`,"srcRing":`)
	w.Int(int64(r.SrcRing))
	w.Raw(`,"srcHost":`)
	w.Int(int64(r.SrcHost))
	w.Raw(`,"dstRing":`)
	w.Int(int64(r.DstRing))
	w.Raw(`,"dstHost":`)
	w.Int(int64(r.DstHost))
	w.Raw(`,"deadlineMillis":`)
	w.Float(r.DeadlineMillis)
	src := &r.Source
	w.Raw(`,"source":{"type":`)
	w.String(src.Type)
	w.OmitFloat(`,"c1Kbit":`, src.C1Kbit)
	w.OmitFloat(`,"p1Millis":`, src.P1Millis)
	w.OmitFloat(`,"c2Kbit":`, src.C2Kbit)
	w.OmitFloat(`,"p2Millis":`, src.P2Millis)
	w.OmitFloat(`,"rateMbps":`, src.RateMbps)
	w.OmitFloat(`,"sigmaKbit":`, src.SigmaKbit)
	w.OmitFloat(`,"peakMbps":`, src.PeakMbps)
	w.Raw(`}}`)
}

// appendResponse writes a Response as json.Marshal does.
func appendResponse(w *jsonwire.Buffer, r *Response) {
	w.Raw(`{"ok":`)
	w.Bool(r.OK)
	w.Raw(`,"op":`)
	w.String(string(r.Op))
	w.OmitString(`,"error":`, r.Error)
	if r.Decision != nil {
		w.Raw(`,"decision":`)
		appendDecision(w, r.Decision)
	}
	if len(r.Decisions) > 0 {
		w.Raw(`,"decisions":[`)
		for i, d := range r.Decisions {
			if i > 0 {
				w.Byte(',')
			}
			if d == nil {
				w.Raw("null")
				continue
			}
			appendDecision(w, d)
		}
		w.Byte(']')
	}
	if r.Released != nil {
		w.Raw(`,"released":`)
		w.Bool(*r.Released)
	}
	if len(r.Report) > 0 {
		w.Raw(`,"report":[`)
		for i := range r.Report {
			c := &r.Report[i]
			if i > 0 {
				w.Byte(',')
			}
			w.Raw(`{"id":`)
			w.String(c.ID)
			w.Raw(`,"src":`)
			w.String(c.Src)
			w.Raw(`,"dst":`)
			w.String(c.Dst)
			w.Raw(`,"delayMillis":`)
			w.Float(c.DelayMillis)
			w.Raw(`,"deadlineMillis":`)
			w.Float(c.DeadlineMillis)
			w.Byte('}')
		}
		w.Byte(']')
	}
	if len(r.Buffers) > 0 {
		w.Raw(`,"buffers":[`)
		for i := range r.Buffers {
			b := &r.Buffers[i]
			if i > 0 {
				w.Byte(',')
			}
			w.Raw(`{"id":`)
			w.String(b.ID)
			w.Raw(`,"srcKbit":`)
			w.Float(b.SrcKbit)
			w.Raw(`,"dstKbit":`)
			w.Float(b.DstKbit)
			w.Byte('}')
		}
		w.Byte(']')
	}
	w.Byte('}')
}

// appendDecision writes a Decision as json.Marshal does.
func appendDecision(w *jsonwire.Buffer, d *Decision) {
	w.Raw(`{"admitted":`)
	w.Bool(d.Admitted)
	w.Raw(`,"reason":`)
	w.String(d.Reason)
	w.OmitFloat(`,"hsMillis":`, d.HSMillis)
	w.OmitFloat(`,"hrMillis":`, d.HRMillis)
	w.OmitFloat(`,"delayMillis":`, d.DelayMillis)
	w.OmitFloat(`,"deadlineMillis":`, d.DeadlineMillis)
	w.Raw(`,"probes":`)
	w.Int(int64(d.Probes))
	w.OmitString(`,"error":`, d.Error)
	w.Byte('}')
}

// wireReader decodes the requests or responses of one connection.
type wireReader struct {
	r *jsonwire.Reader
	s jsonwire.Scanner
	// Scratch for arrays, reused across messages: a decoded array is
	// copied out at its exact length.
	admits    []scenario.Request
	decisions []Decision
	nulls     []bool // decisions[i] was null
}

func newWireReader(r io.Reader) *wireReader {
	return &wireReader{r: jsonwire.NewReader(r)}
}

// readRequest decodes the next request, as json.Decoder.Decode(req) does.
func (w *wireReader) readRequest(req *Request) error {
	return w.r.Decode(req, func(obj []byte) bool {
		w.s.Reset(obj)
		var out Request
		if !w.request(&out) || w.s.Pos() != len(obj) {
			return false
		}
		*req = out
		return true
	})
}

// readResponse decodes the next response, as json.Decoder.Decode(resp)
// does.
func (w *wireReader) readResponse(resp *Response) error {
	return w.r.Decode(resp, func(obj []byte) bool {
		w.s.Reset(obj)
		var out Response
		if !w.response(&out) || w.s.Pos() != len(obj) {
			return false
		}
		*resp = out
		return true
	})
}

// str reads a string value into a fresh string.
func (w *wireReader) str(dst *string) bool {
	b, ok := w.s.String()
	*dst = string(b)
	return ok
}

// float reads a number into a float64.
func (w *wireReader) float(dst *float64) bool {
	f, ok := w.s.Float()
	*dst = f
	return ok
}

// integer reads a number into an int.
func (w *wireReader) integer(dst *int) bool {
	n, ok := w.s.Int()
	*dst = n
	return ok
}

// boolean reads true or false.
func (w *wireReader) boolean(dst *bool) bool {
	v, ok := w.s.Bool()
	*dst = v
	return ok
}

func (w *wireReader) request(req *Request) bool {
	m := w.s.Object()
	for m.Next() {
		switch string(m.Key()) {
		case "op":
			b, ok := w.s.String()
			req.Op = Op(intern(b, ops[:]))
			m.Set(ok, 0)
		case "admit":
			req.Admit = new(scenario.Request)
			m.Set(w.admit(req.Admit), 1)
		case "admitBatch":
			m.Set(w.admitBatch(req), 2)
		case "release":
			m.Set(w.str(&req.Release), 3)
		default:
			m.Fail()
		}
	}
	return m.Closed()
}

// admitBatch reads the batch into the scratch array, then copies it out at
// its exact length.
func (w *wireReader) admitBatch(req *Request) bool {
	w.admits = w.admits[:0]
	a := w.s.Array()
	for a.Next() {
		w.admits = append(w.admits, scenario.Request{})
		if !w.admit(&w.admits[len(w.admits)-1]) {
			a.Fail()
		}
	}
	req.AdmitBatch = append(make([]scenario.Request, 0, len(w.admits)), w.admits...)
	return a.Closed()
}

func (w *wireReader) admit(r *scenario.Request) bool {
	m := w.s.Object()
	for m.Next() {
		switch string(m.Key()) {
		case "id":
			m.Set(w.str(&r.ID), 0)
		case "srcRing":
			m.Set(w.integer(&r.SrcRing), 1)
		case "srcHost":
			m.Set(w.integer(&r.SrcHost), 2)
		case "dstRing":
			m.Set(w.integer(&r.DstRing), 3)
		case "dstHost":
			m.Set(w.integer(&r.DstHost), 4)
		case "deadlineMillis":
			m.Set(w.float(&r.DeadlineMillis), 5)
		case "source":
			m.Set(w.source(&r.Source), 6)
		default:
			m.Fail()
		}
	}
	return m.Closed()
}

func (w *wireReader) source(src *scenario.Source) bool {
	m := w.s.Object()
	for m.Next() {
		switch string(m.Key()) {
		case "type":
			b, ok := w.s.String()
			src.Type = intern(b, sourceTypes[:])
			m.Set(ok, 0)
		case "c1Kbit":
			m.Set(w.float(&src.C1Kbit), 1)
		case "p1Millis":
			m.Set(w.float(&src.P1Millis), 2)
		case "c2Kbit":
			m.Set(w.float(&src.C2Kbit), 3)
		case "p2Millis":
			m.Set(w.float(&src.P2Millis), 4)
		case "rateMbps":
			m.Set(w.float(&src.RateMbps), 5)
		case "sigmaKbit":
			m.Set(w.float(&src.SigmaKbit), 6)
		case "peakMbps":
			m.Set(w.float(&src.PeakMbps), 7)
		default:
			m.Fail()
		}
	}
	return m.Closed()
}

func (w *wireReader) response(resp *Response) bool {
	m := w.s.Object()
	for m.Next() {
		switch string(m.Key()) {
		case "ok":
			m.Set(w.boolean(&resp.OK), 0)
		case "op":
			b, ok := w.s.String()
			resp.Op = Op(intern(b, ops[:]))
			m.Set(ok, 1)
		case "error":
			m.Set(w.str(&resp.Error), 2)
		case "decision":
			resp.Decision = new(Decision)
			m.Set(w.decision(resp.Decision), 3)
		case "decisions":
			m.Set(w.decisionList(resp), 4)
		case "released":
			resp.Released = new(bool)
			m.Set(w.boolean(resp.Released), 5)
		case "report":
			m.Set(w.reportList(resp), 6)
		case "buffers":
			m.Set(w.bufferList(resp), 7)
		default:
			m.Fail()
		}
	}
	return m.Closed()
}

// decisionList reads a batch's decisions into the scratch array, then
// copies them out into one backing array the pointers share; a null
// element, which the encoder writes for a nil pointer, stays nil.
func (w *wireReader) decisionList(resp *Response) bool {
	w.decisions, w.nulls = w.decisions[:0], w.nulls[:0]
	a := w.s.Array()
	for a.Next() {
		w.decisions = append(w.decisions, Decision{})
		null := w.s.Null()
		w.nulls = append(w.nulls, null)
		if !null && !w.decision(&w.decisions[len(w.decisions)-1]) {
			a.Fail()
		}
	}
	decs := append(make([]Decision, 0, len(w.decisions)), w.decisions...)
	resp.Decisions = make([]*Decision, len(decs))
	for i := range decs {
		if !w.nulls[i] {
			resp.Decisions[i] = &decs[i]
		}
	}
	return a.Closed()
}

func (w *wireReader) decision(d *Decision) bool {
	m := w.s.Object()
	for m.Next() {
		switch string(m.Key()) {
		case "admitted":
			m.Set(w.boolean(&d.Admitted), 0)
		case "reason":
			b, ok := w.s.String()
			d.Reason = intern(b, reasons[:])
			m.Set(ok, 1)
		case "hsMillis":
			m.Set(w.float(&d.HSMillis), 2)
		case "hrMillis":
			m.Set(w.float(&d.HRMillis), 3)
		case "delayMillis":
			m.Set(w.float(&d.DelayMillis), 4)
		case "deadlineMillis":
			m.Set(w.float(&d.DeadlineMillis), 5)
		case "probes":
			m.Set(w.integer(&d.Probes), 6)
		case "error":
			m.Set(w.str(&d.Error), 7)
		default:
			m.Fail()
		}
	}
	return m.Closed()
}

func (w *wireReader) reportList(resp *Response) bool {
	resp.Report = []ConnReport{}
	a := w.s.Array()
	for a.Next() {
		resp.Report = append(resp.Report, ConnReport{})
		c := &resp.Report[len(resp.Report)-1]
		m := w.s.Object()
		for m.Next() {
			switch string(m.Key()) {
			case "id":
				m.Set(w.str(&c.ID), 0)
			case "src":
				m.Set(w.str(&c.Src), 1)
			case "dst":
				m.Set(w.str(&c.Dst), 2)
			case "delayMillis":
				m.Set(w.float(&c.DelayMillis), 3)
			case "deadlineMillis":
				m.Set(w.float(&c.DeadlineMillis), 4)
			default:
				m.Fail()
			}
		}
		if !m.Closed() {
			a.Fail()
		}
	}
	return a.Closed()
}

func (w *wireReader) bufferList(resp *Response) bool {
	resp.Buffers = []BufferReport{}
	a := w.s.Array()
	for a.Next() {
		resp.Buffers = append(resp.Buffers, BufferReport{})
		b := &resp.Buffers[len(resp.Buffers)-1]
		m := w.s.Object()
		for m.Next() {
			switch string(m.Key()) {
			case "id":
				m.Set(w.str(&b.ID), 0)
			case "srcKbit":
				m.Set(w.float(&b.SrcKbit), 1)
			case "dstKbit":
				m.Set(w.float(&b.DstKbit), 2)
			default:
				m.Fail()
			}
		}
		if !m.Closed() {
			a.Fail()
		}
	}
	return a.Closed()
}

// The fixed strings a decoded message shares instead of allocating: ops,
// source types and the CAC's reasons.
var (
	ops         = [...]string{string(OpAdmit), string(OpPreview), string(OpPreviewBatch), string(OpRelease), string(OpReport), string(OpBuffers)}
	sourceTypes = [...]string{"dualPeriodic", "periodic", "cbr", "leakyBucket"}
	reasons     = [...]string{core.ReasonAdmitted, core.ReasonHostBusy, core.ReasonNoBandwidth, core.ReasonInfeasible, core.ReasonInvalidTarget}
)

// intern returns the member of known equal to b, or a copy of b.
func intern(b []byte, known []string) string {
	for _, s := range known {
		if string(b) == s {
			return s
		}
	}
	return string(b)
}
