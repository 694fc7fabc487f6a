package signaling

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"fafnet/internal/core"
	"fafnet/internal/jsonwire"
	"fafnet/internal/obs"
	"fafnet/internal/scenario"
)

// segReader delivers data in segments: each Read returns bytes of one
// segment only, segment k being 1 + seg[k mod len(seg)]²/8 bytes long (the
// whole stream when seg is empty). started counts the segments a Read has
// begun, which is how far the stream had to arrive for a value to come out.
// After the data it returns end, over and over, as a closed connection or an
// expired deadline does.
type segReader struct {
	data    []byte
	seg     []byte
	end     error
	started int
	left    int
}

func newSegReader(data, seg []byte) *segReader {
	end := io.EOF
	if len(seg) > 0 && seg[0]&1 == 1 {
		end = errDeadline{}
	}
	return &segReader{data: data, seg: seg, end: end}
}

func (r *segReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.end
	}
	if r.left == 0 {
		r.left = len(r.data)
		if len(r.seg) > 0 {
			b := int(r.seg[r.started%len(r.seg)])
			r.left = 1 + b*b/8
		}
		r.started++
	}
	n := copy(p, r.data[:min(r.left, len(r.data))])
	r.data = r.data[n:]
	r.left -= n
	return n, nil
}

// errDeadline is an expired read deadline, as a net.Conn reports it.
type errDeadline struct{}

func (errDeadline) Error() string   { return "i/o timeout" }
func (errDeadline) Timeout() bool   { return true }
func (errDeadline) Temporary() bool { return true }

var _ net.Error = errDeadline{}

// checkStream decodes stream, delivered in the segments seg describes, with
// read and with a json.Decoder over the same segments, the oracle: the
// values, the errors (text, io.EOF, timeout) and the segment each came out
// at must be the same, call by call.
func checkStream[T any](t *testing.T, stream, seg []byte, read func(*wireReader, *T) error) {
	t.Helper()
	osrc, src := newSegReader(stream, seg), newSegReader(stream, seg)
	oracle, w := json.NewDecoder(osrc), newWireReader(src)
	for call, errs := 0, 0; call < 64 && errs < 2; call++ {
		var want, got T
		werr := oracle.Decode(&want)
		gerr := read(w, &got)
		switch {
		case (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error():
			t.Fatalf("call %d: error %v, json.Decoder's %v", call, gerr, werr)
		case errors.Is(werr, io.EOF) != errors.Is(gerr, io.EOF) || isTimeout(werr) != isTimeout(gerr):
			t.Fatalf("call %d: error %v classifies unlike json.Decoder's %v", call, gerr, werr)
		case !reflect.DeepEqual(want, got):
			t.Fatalf("call %d: decoded %+v, json.Decoder %+v", call, got, want)
		case src.started != osrc.started:
			t.Fatalf("call %d: returned after %d segments, json.Decoder after %d", call, src.started, osrc.started)
		}
		if werr != nil {
			errs++
		}
	}
}

// specialFloats are the values float formatting turns on: signed zeros,
// subnormals, both sides of the 1e-6 and 1e21 notation cut-offs, the
// extremes, and what encoding/json refuses.
var specialFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.225073858507201e-308,
	1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e21, math.Nextafter(1e21, 0), -1e21,
	1e-7, 123456789e-15, 0.1, 60, 2.5e20, math.MaxFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// valueSource draws test values from fuzz input.
type valueSource struct{ b []byte }

func (s *valueSource) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

// str draws up to 31 arbitrary bytes: escapes, invalid UTF-8, U+2028 and
// all.
func (s *valueSource) str() string {
	n := min(int(s.byte()%32), len(s.b))
	out := string(s.b[:n])
	s.b = s.b[n:]
	return out
}

// float draws a special float or eight raw bytes of one.
func (s *valueSource) float() float64 {
	c := s.byte()
	if int(c) < 2*len(specialFloats) {
		return specialFloats[int(c)%len(specialFloats)]
	}
	var bits uint64
	for i := 0; i < 8; i++ {
		bits = bits<<8 | uint64(s.byte())
	}
	return math.Float64frombits(bits)
}

// int draws a small integer or an extreme of int's range.
func (s *valueSource) int() int {
	switch c := s.byte(); c {
	case 0xff:
		return math.MaxInt
	case 0xfe:
		return math.MinInt
	default:
		return int(int8(c)) * int(s.byte())
	}
}

func (s *valueSource) admit() scenario.Request {
	return scenario.Request{
		ID: s.str(), SrcRing: s.int(), SrcHost: s.int(), DstRing: s.int(), DstHost: s.int(),
		DeadlineMillis: s.float(),
		Source: scenario.Source{Type: s.str(), C1Kbit: s.float(), P1Millis: s.float(), C2Kbit: s.float(),
			P2Millis: s.float(), RateMbps: s.float(), SigmaKbit: s.float(), PeakMbps: s.float()},
	}
}

func (s *valueSource) request() Request {
	req := Request{Op: Op(s.str()), Release: s.str()}
	if s.byte()&1 == 1 {
		a := s.admit()
		req.Admit = &a
	}
	for n := s.byte() % 4; n > 0; n-- {
		req.AdmitBatch = append(req.AdmitBatch, s.admit())
	}
	return req
}

func (s *valueSource) decision() *Decision {
	if s.byte()%5 == 0 {
		return nil
	}
	return &Decision{Admitted: s.byte()&1 == 1, Reason: s.str(), HSMillis: s.float(), HRMillis: s.float(),
		DelayMillis: s.float(), DeadlineMillis: s.float(), Probes: s.int(), Error: s.str()}
}

func (s *valueSource) response() Response {
	resp := Response{OK: s.byte()&1 == 1, Op: Op(s.str()), Error: s.str(), Decision: s.decision()}
	for n := s.byte() % 4; n > 0; n-- {
		resp.Decisions = append(resp.Decisions, s.decision())
	}
	if c := s.byte(); c%3 != 0 {
		found := c%3 == 1
		resp.Released = &found
	}
	for n := s.byte() % 3; n > 0; n-- {
		resp.Report = append(resp.Report, ConnReport{ID: s.str(), Src: s.str(), Dst: s.str(),
			DelayMillis: s.float(), DeadlineMillis: s.float()})
	}
	for n := s.byte() % 3; n > 0; n-- {
		resp.Buffers = append(resp.Buffers, BufferReport{ID: s.str(), SrcKbit: s.float(), DstKbit: s.float()})
	}
	return resp
}

func (s *valueSource) auditRecord() obs.AuditRecord {
	rec := obs.AuditRecord{TimeUnixNanos: int64(s.int()) | 1, Op: s.str(), ConnID: s.str(), Admitted: s.byte()&1 == 1,
		Reason: s.str(), Error: s.str(), Beta: s.float(), HSSeconds: s.float(), HRSeconds: s.float(),
		DeadlineSeconds: s.float(), Probes: s.int()}
	if s.byte()&1 == 1 {
		rec.Stages = &obs.StageDelays{SrcMACSeconds: s.float(), ShaperSeconds: s.float(), DstMACSeconds: s.float(),
			ConstantSeconds: s.float(), TotalSeconds: s.float()}
		for n := s.byte() % 4; n > 0; n-- {
			rec.Stages.PortSeconds = append(rec.Stages.PortSeconds, s.float())
		}
	}
	if s.byte()&1 == 1 {
		rec.Cache = &obs.CacheCounts{Stage0Hits: uint64(s.int()), Stage0Misses: uint64(s.byte()) << 56,
			MACHits: uint64(s.byte()), MACMisses: math.MaxUint64}
	}
	if c := s.byte(); c%3 != 0 {
		found := c%3 == 1
		rec.Released = &found
	}
	switch s.byte() % 3 {
	case 1: // a body the server wrote
		a := s.admit()
		rec.Request = auditBody(&a)
	case 2: // any bytes at all: json.Marshal compacts, escapes or refuses them
		rec.Request = json.RawMessage(s.str())
	}
	return rec
}

// checkEncode requires the bytes json.Encoder.Encode writes for v, or its
// error and no bytes.
func checkEncode[T any](t *testing.T, v *T, enc func(*jsonwire.Buffer, *T)) {
	t.Helper()
	want, werr := json.Marshal(v)
	var out bytes.Buffer
	var buf jsonwire.Buffer
	gerr := writeLine(&out, &buf, v, enc)
	switch {
	case werr != nil:
		if gerr == nil || gerr.Error() != werr.Error() || out.Len() > 0 {
			t.Fatalf("%+v: wrote %q with error %v, json.Marshal fails with %v", *v, out.Bytes(), gerr, werr)
		}
	case gerr != nil || !bytes.Equal(out.Bytes(), append(want, '\n')):
		t.Fatalf("%+v: wrote %q (error %v), json.Marshal %q", *v, out.Bytes(), gerr, want)
	}
}

// checkAuditEncode requires AuditLog.Append to write json.Marshal's bytes
// for rec, or to fail with its error.
func checkAuditEncode(t *testing.T, rec obs.AuditRecord) {
	t.Helper()
	want, werr := json.Marshal(rec)
	var out bytes.Buffer
	gerr := obs.NewAuditLog(&out).Append(rec)
	switch {
	case werr != nil:
		if gerr == nil || gerr.Error() != fmt.Sprintf("obs: marshal audit record: %v", werr) || out.Len() > 0 {
			t.Fatalf("%+v: wrote %q with error %v, json.Marshal fails with %v", rec, out.Bytes(), gerr, werr)
		}
	case gerr != nil || !bytes.Equal(out.Bytes(), append(want, '\n')):
		t.Fatalf("%+v: wrote %q (error %v), json.Marshal %q", rec, out.Bytes(), gerr, want)
	}
}

// fillFields sets every exported field under v, through pointers, slices
// and nested structs, to a value omitempty keeps, each number and string
// distinct. A field of a kind it has no value for fails the test.
func fillFields(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillFields(t, v.Field(i), n)
			}
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillFields(t, v.Elem(), n)
	case reflect.Slice:
		if v.Type() == reflect.TypeOf(json.RawMessage(nil)) {
			v.SetBytes([]byte(fmt.Sprintf(`{"n":%d}`, *n)))
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fillFields(t, v.Index(0), n)
		fillFields(t, v.Index(1), n)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.25)
	default:
		t.Fatalf("no test value for a field of type %s", v.Type())
	}
}

// TestEncodersCoverEveryField ties the hand-written encoders to the
// types' declarations: with every exported field set, at every depth, each
// must write json.Marshal's bytes, so a field added to Request, Response,
// scenario.Request or obs.AuditRecord (or a type they hold) fails here
// until its encoder writes it. The zero values check omitempty the other
// way. Append takes its own encoder for these records: their floats are
// finite and the request body is compact.
func TestEncodersCoverEveryField(t *testing.T) {
	var req Request
	var resp Response
	var rec obs.AuditRecord
	n := 0
	for _, v := range []any{&req, &resp, &rec} {
		fillFields(t, reflect.ValueOf(v).Elem(), &n)
	}
	for _, c := range []struct {
		v   any
		enc func(*jsonwire.Buffer)
	}{
		{&req, func(w *jsonwire.Buffer) { appendRequest(w, &req) }},
		{&resp, func(w *jsonwire.Buffer) { appendResponse(w, &resp) }},
		{&Request{}, func(w *jsonwire.Buffer) { appendRequest(w, &Request{}) }},
		{&Response{}, func(w *jsonwire.Buffer) { appendResponse(w, &Response{}) }},
	} {
		want, err := json.Marshal(c.v)
		if err != nil {
			t.Fatal(err)
		}
		var w jsonwire.Buffer
		if c.enc(&w); !w.OK() || !bytes.Equal(w.Bytes(), want) {
			t.Errorf("encoded %s\njson.Marshal %s", w.Bytes(), want)
		}
	}
	checkAuditEncode(t, rec)
	checkAuditEncode(t, obs.AuditRecord{TimeUnixNanos: 1})
}

// benchPreviewLine is a preview request as the benchmark's client sends it.
const benchPreviewLine = `{"op":"preview","admit":{"id":"pv3","srcRing":2,"srcHost":1,"dstRing":0,"dstHost":3,"deadlineMillis":45,"source":{"type":"dualPeriodic","c1Kbit":50,"p1Millis":10,"c2Kbit":10,"p2Millis":1}}}` + "\n"

// batchLine is a previewBatch request of n members as Client sends it.
func batchLine(n int) []byte {
	req := Request{Op: OpPreviewBatch}
	for i := 0; i < n; i++ {
		req.AdmitBatch = append(req.AdmitBatch, videoRequest(fmt.Sprintf("b%d-%d", i%7, i), i%3, i%4, (i+1)%3, i%4))
	}
	var out bytes.Buffer
	if err := writeLine(&out, new(jsonwire.Buffer), &req, appendRequest); err != nil {
		panic(err)
	}
	return out.Bytes()
}

// FuzzWireCodec checks the wire codec against encoding/json, both ways.
//
// Decoding: stream is read in the segments seg describes, as requests and
// as responses, by the wire reader and by a json.Decoder (checkStream):
// same values, same errors, returned after the same segment. Encoding:
// Request, Response and obs.AuditRecord values built from stream — arbitrary
// string bytes, special and raw floats — must encode to json.Marshal's
// bytes or fail with its error; each request and response line then goes
// back through the decode check.
//
// The seeds are a benchmark preview line, a 512-member batch, escaped ids,
// a line with spaces, two objects on one line, an object without its
// newline, a torn line, a response stream, and a repeated admit body,
// which encoding/json merges into the first.
func FuzzWireCodec(f *testing.F) {
	escaped := `{"op":"preview","admit":{"id":"q\"\\\n\u003c\u2028\ufffd\u00e9é","srcRing":0,"srcHost":0,"dstRing":1,"dstHost":0,"deadlineMillis":1e-7,"source":{"type":"cbr","rateMbps":4}}}` + "\n"
	resp := `{"ok":true,"op":"preview","decision":{"admitted":true,"reason":"admitted","hsMillis":0.2173913043478261,"hrMillis":0.1,"delayMillis":31.5,"deadlineMillis":45,"probes":7}}` + "\n" +
		`{"ok":true,"op":"previewBatch","decisions":[{"admitted":false,"reason":"invalid route","deadlineMillis":30,"probes":0,"error":"dup"}]}` + "\n" +
		`{"ok":true,"op":"release","released":false}` + "\n" + `{"ok":false,"op":"","error":"signaling: malformed request: x"}` + "\n"
	for _, seed := range []struct{ stream, seg string }{
		{benchPreviewLine, ""},
		{benchPreviewLine + benchPreviewLine, "\x30\x02\x11"},
		{string(batchLine(512)), "\xff\x90"},
		{escaped, "\x00\x04"},
		{`{ "op": "report" }` + "\n" + benchPreviewLine, ""},
		{strings.TrimSuffix(benchPreviewLine, "\n") + `{"op":"buffers"}` + "\n", "\x08"},
		{strings.TrimSuffix(benchPreviewLine, "\n"), "\x01"},
		{benchPreviewLine[:97], "\x10"},
		{resp, "\x05\x40"},
		{`{"op":"preview","admit":{"id":"a","srcRing":1,"source":{"type":"cbr"}},"admit":{"id":"b","source":{"rateMbps":4}}}` + "\n", ""},
	} {
		f.Add([]byte(seed.stream), []byte(seed.seg))
	}
	f.Fuzz(func(t *testing.T, stream, seg []byte) {
		checkStream(t, stream, seg, (*wireReader).readRequest)
		checkStream(t, stream, seg, (*wireReader).readResponse)

		src := valueSource{b: stream}
		req, resp := src.request(), src.response()
		checkEncode(t, &req, appendRequest)
		checkEncode(t, &resp, appendResponse)
		checkAuditEncode(t, src.auditRecord())
		var line bytes.Buffer
		if writeLine(&line, new(jsonwire.Buffer), &req, appendRequest) == nil {
			checkStream(t, line.Bytes(), seg, (*wireReader).readRequest)
			checkFastPath(t, line.Bytes(), seg, (*wireReader).readRequest)
		}
		line.Reset()
		if writeLine(&line, new(jsonwire.Buffer), &resp, appendResponse) == nil {
			checkStream(t, line.Bytes(), seg, (*wireReader).readResponse)
			checkFastPath(t, line.Bytes(), seg, (*wireReader).readResponse)
		}
	})
}

// checkFastPath requires a line the encoders wrote to be decoded without
// encoding/json, however it arrives.
func checkFastPath[T any](t *testing.T, line, seg []byte, read func(*wireReader, *T) error) {
	t.Helper()
	w := newWireReader(newSegReader(line, seg))
	var v T
	if err := read(w, &v); err != nil || !w.r.Compact() {
		t.Fatalf("the encoders' line %q left the fast path (error %v)", line, err)
	}
}

// TestValidateFailuresOnTheWire pins the text of every Validate failure as
// the server writes it, one request per connection line.
func TestValidateFailuresOnTheWire(t *testing.T) {
	client, _ := startServer(t)
	conn, err := net.DialTimeout("tcp", client.conn.RemoteAddr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bad := videoRequest("b", 0, 0, 1, 0)
	bad.Source.Type = "warp"
	line := func(req Request) string {
		var out bytes.Buffer
		if err := writeLine(&out, new(jsonwire.Buffer), &req, appendRequest); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	for _, c := range []struct{ req, resp string }{
		{`{"op":"admit"}` + "\n",
			`{"ok":false,"op":"admit","error":"signaling: admit requires an admit body"}`},
		{`{"op":"previewBatch"}` + "\n",
			`{"ok":false,"op":"previewBatch","error":"signaling: previewBatch requires at least one admit body"}`},
		{line(Request{Op: OpPreviewBatch, AdmitBatch: make([]scenario.Request, MaxBatch+1)}),
			`{"ok":false,"op":"previewBatch","error":"signaling: previewBatch of 1025 exceeds the maximum of 1024"}`},
		{line(Request{Op: OpPreviewBatch, AdmitBatch: []scenario.Request{videoRequest("a", 0, 0, 1, 0), bad}}),
			`{"ok":false,"op":"previewBatch","error":"signaling: previewBatch entry 1: scenario: request \"b\": scenario: unknown source type \"warp\""}`},
		{line(Request{Op: OpPreview, Admit: &bad}),
			`{"ok":false,"op":"preview","error":"scenario: request \"b\": scenario: unknown source type \"warp\""}`},
		{`{"op":"release"}` + "\n",
			`{"ok":false,"op":"release","error":"signaling: release requires a connection id"}`},
		{`{"op":"dance"}` + "\n",
			`{"ok":false,"op":"dance","error":"signaling: unknown op \"dance\""}`},
	} {
		if _, err := io.WriteString(conn, c.req); err != nil {
			t.Fatal(err)
		}
		if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		got, err := bufio.NewReader(conn).ReadString('\n')
		if err != nil {
			t.Fatalf("%.40s: %v", c.req, err)
		}
		if got != c.resp+"\n" {
			t.Errorf("%.40s:\n got %s\nwant %s", c.req, got, c.resp)
		}
	}
}

// loopReader returns line on every Read: a connection whose peer never
// stops sending the same message.
type loopReader struct{ line []byte }

func (r loopReader) Read(p []byte) (int, error) { return copy(p, r.line), nil }

// TestWireCodecAllocations pins the warm paths: encoding into a reused
// buffer allocates nothing, decoding a canonical preview request allocates
// at most its *scenario.Request and its id, and decoding a preview response
// at most its *Decision.
func TestWireCodecAllocations(t *testing.T) {
	preview := Request{Op: OpPreview, Admit: &scenario.Request{ID: "pv3", SrcRing: 2, SrcHost: 1, DstHost: 3,
		DeadlineMillis: 45, Source: scenario.Source{Type: "dualPeriodic", C1Kbit: 50, P1Millis: 10, C2Kbit: 10, P2Millis: 1}}}
	decision := Response{OK: true, Op: OpPreview, Decision: &Decision{Admitted: true, Reason: core.ReasonAdmitted,
		HSMillis: 0.2173913043478261, HRMillis: 0.1, DelayMillis: 31.5, DeadlineMillis: 45, Probes: 7}}
	batch := Response{OK: true, Op: OpPreviewBatch}
	for i := 0; i < 512; i++ {
		batch.Decisions = append(batch.Decisions, decision.Decision)
	}
	var buf jsonwire.Buffer
	for _, c := range []struct {
		name string
		enc  func()
	}{
		{"preview request", func() { appendRequest(&buf, &preview) }},
		{"preview response", func() { appendResponse(&buf, &decision) }},
		{"batch response", func() { appendResponse(&buf, &batch) }},
	} {
		c.enc() // grow the buffer once
		if n := testing.AllocsPerRun(100, func() { buf.Reset(); c.enc() }); n != 0 {
			t.Errorf("encoding a %s allocates %v times, want 0", c.name, n)
		}
	}

	var line bytes.Buffer
	if err := writeLine(&line, &buf, &preview, appendRequest); err != nil {
		t.Fatal(err)
	}
	in := newWireReader(loopReader{line.Bytes()})
	var req Request
	if n := testing.AllocsPerRun(100, func() {
		if err := in.readRequest(&req); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("decoding a preview request allocates %v times, want at most 2", n)
	}
	if !reflect.DeepEqual(req, preview) {
		t.Errorf("decoded %+v, sent %+v", req, preview)
	}

	line.Reset()
	if err := writeLine(&line, &buf, &decision, appendResponse); err != nil {
		t.Fatal(err)
	}
	in = newWireReader(loopReader{line.Bytes()})
	var resp Response
	if n := testing.AllocsPerRun(100, func() {
		if err := in.readResponse(&resp); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("decoding a preview response allocates %v times, want at most 1", n)
	}
	if !reflect.DeepEqual(resp, decision) {
		t.Errorf("decoded %+v, sent %+v", resp, decision)
	}
}
