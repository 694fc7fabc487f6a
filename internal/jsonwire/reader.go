package jsonwire

import (
	"encoding/json"
	"io"
)

// A Reader decodes a stream of JSON objects, as a json.Decoder does, taking
// a fast path for the compact form a Buffer writes. It reads an object only
// as far as its closing brace, newline or not, and asks its source for more
// bytes only when the object so far is incomplete: exactly when a
// json.Decoder would.
//
// On any byte outside the compact form (whitespace other than the newline
// between objects, a value a parser refuses) the Reader switches to a
// json.Decoder for good, handing it every byte it has not yet decoded
// followed by the rest of the stream. From then on the decoder's values,
// errors, io.EOF and io.ErrUnexpectedEOF are the stream's; so are the
// source's own read errors, which the Reader always lets the decoder report.
type Reader struct {
	r   io.Reader
	buf []byte
	off int // buf[:off] has been decoded
	pos int // buf[off:pos] fits the compact form so far
	v   validator
	dec *json.Decoder // set once the stream has left the compact form
}

// readMin is the free space a read asks for; the buffer grows past it only
// for objects larger than the space left.
const readMin = 4096

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r}
}

// Compact reports whether the stream is still read on the fast path:
// false once it has been handed to a json.Decoder.
func (r *Reader) Compact() bool { return r.dec == nil }

// Decode reads the next object into v. The Reader's validator follows the
// object as its bytes arrive; once it is complete, parse is handed exactly
// its bytes, from the opening brace to the closing one, and either fills v
// and returns true or returns false, leaving v untouched, and
// encoding/json decodes the object instead. v must be what
// json.Decoder.Decode would be given.
func (r *Reader) Decode(v any, parse func(obj []byte) bool) error {
	if r.dec != nil {
		return r.dec.Decode(v)
	}
	r.v.reset()
	r.pos = r.off
	var readErr error
	for {
		n, st := r.v.scan(r.buf[r.pos:])
		r.pos += n
		switch st {
		case reject:
			return r.fallback(readErr).Decode(v)
		case done:
			if !parse(r.buf[r.start():r.pos]) {
				return r.fallback(readErr).Decode(v)
			}
			// A read error that came with the object's last bytes is
			// dropped, as json.Decoder drops it; the next read meets it
			// again.
			r.off = r.pos
			return nil
		}
		if readErr != nil {
			return r.fallback(readErr).Decode(v)
		}
		readErr = r.fill()
	}
}

// start skips the newlines that separate objects, returning the index of
// the first other byte.
func (r *Reader) start() int {
	i := r.off
	for i < len(r.buf) && r.buf[i] == '\n' {
		i++
	}
	return i
}

// fill reads once into the free space after the buffered bytes, first
// sliding the undecoded bytes to the front.
func (r *Reader) fill() error {
	if r.off > 0 {
		n := copy(r.buf, r.buf[r.off:])
		r.buf = r.buf[:n]
		r.pos -= r.off
		r.off = 0
	}
	if cap(r.buf)-len(r.buf) < readMin {
		grown := make([]byte, len(r.buf), 2*cap(r.buf)+readMin)
		copy(grown, r.buf)
		r.buf = grown
	}
	n, err := r.r.Read(r.buf[len(r.buf):cap(r.buf)])
	r.buf = r.buf[:len(r.buf)+n]
	return err
}

// fallback switches the stream to a json.Decoder for good. The decoder
// reads the undecoded buffered bytes, then the read error that arrived
// with them, if any, then the source.
func (r *Reader) fallback(readErr error) *json.Decoder {
	r.dec = json.NewDecoder(&handoff{pending: r.buf[r.off:], err: readErr, r: r.r})
	r.buf = nil
	return r.dec
}

// handoff replays what a Reader had buffered before the source takes over.
type handoff struct {
	pending []byte
	err     error
	r       io.Reader
}

// Read returns the pending bytes, then the pending error once, then
// whatever the source returns.
func (h *handoff) Read(p []byte) (int, error) {
	if len(h.pending) > 0 {
		n := copy(p, h.pending)
		h.pending = h.pending[n:]
		return n, nil
	}
	if err := h.err; err != nil {
		h.err = nil
		return 0, err
	}
	return h.r.Read(p)
}

// maxDepth bounds the nesting the validator follows, one bit of its
// bracket stack per level; deeper input is left to encoding/json, whose own
// limit is far higher.
const maxDepth = 64

// Validator states. Between objects only newlines and an opening brace
// are accepted; inside, the states follow JSON's grammar without
// whitespace.
const (
	vStart        = iota // before an object
	vKeyOrClose          // after '{'
	vKey                 // after ',' in an object
	vColon               // after a key
	vValue               // where a value must start
	vValueOrClose        // after '['
	vAfter               // after a value: ',' or a closing bracket
	vString              // inside a string
	vEscape              // after a backslash
	vHex                 // inside the digits of a \u escape
	vMinus               // after a leading '-'
	vZero                // after a leading zero
	vInt                 // inside integer digits
	vDot                 // after the decimal point
	vFrac                // inside fraction digits
	vExp                 // after 'e' or 'E'
	vExpSign             // after the exponent's sign
	vExpDigits           // inside exponent digits
	vLiteral             // inside true, false or null
)

// status is what a validator makes of the bytes it has been given.
type status uint8

const (
	done   status = iota // the object closed
	more                 // every byte fits the compact form; the object goes on
	reject               // a byte leaves the compact form
)

// A validator checks that a stream of bytes fits the compact form as it
// arrives, so a Reader can tell an object that needs more input from input
// it must hand to encoding/json, and find where the object ends, without
// parsing the bytes twice when they arrive in pieces.
type validator struct {
	state uint8
	key   bool   // the current string is an object key
	n     int    // hex digits left in a \u escape
	lit   string // literal bytes still expected
	depth int    // open brackets
	objs  uint64 // bit d set: the bracket open at depth d+1 is '{'
}

func (v *validator) reset() { *v = validator{} }

// inObject reports whether the innermost open bracket is an object's.
func (v *validator) inObject() bool { return v.objs>>(v.depth-1)&1 == 1 }

// scan consumes b, returning how many bytes it used and done at the
// object's closing brace, reject at a byte outside the compact form, or
// more when all of b fits and the object goes on.
func (v *validator) scan(b []byte) (int, status) {
	i := 0
	for i < len(b) {
		c := b[i]
		switch v.state {
		case vStart:
			switch c {
			case '\n':
			case '{':
				v.start(c)
			default:
				return i, reject
			}
		case vKeyOrClose, vKey:
			switch {
			case c == '"':
				v.state, v.key = vString, true
			case c == '}' && v.state == vKeyOrClose:
				if v.pop() {
					return i + 1, done
				}
			default:
				return i, reject
			}
		case vColon:
			if c != ':' {
				return i, reject
			}
			v.state = vValue
		case vValue, vValueOrClose:
			if c == ']' && v.state == vValueOrClose {
				if v.pop() {
					return i + 1, done
				}
				break
			}
			if !v.start(c) {
				return i, reject
			}
		case vAfter:
			obj := v.inObject()
			switch {
			case c == ',' && obj:
				v.state = vKey
			case c == ',':
				v.state = vValue
			case c == '}' && obj, c == ']' && !obj:
				if v.pop() {
					return i + 1, done
				}
			default:
				return i, reject
			}
		case vString:
			for i < len(b) && b[i] >= ' ' && b[i] != '"' && b[i] != '\\' {
				i++
			}
			if i == len(b) {
				return i, more
			}
			switch b[i] {
			case '"':
				if v.key {
					v.state = vColon
				} else {
					v.state = vAfter
				}
			case '\\':
				v.state = vEscape
			default:
				return i, reject
			}
		case vEscape:
			switch c {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				v.state = vString
			case 'u':
				v.state, v.n = vHex, 4
			default:
				return i, reject
			}
		case vHex:
			if hexVal(c) < 0 {
				return i, reject
			}
			if v.n--; v.n == 0 {
				v.state = vString
			}
		case vMinus:
			switch {
			case c == '0':
				v.state = vZero
			case '1' <= c && c <= '9':
				v.state = vInt
			default:
				return i, reject
			}
		case vZero, vInt, vFrac, vExpDigits:
			switch {
			case '0' <= c && c <= '9' && v.state != vZero:
			case c == '.' && (v.state == vZero || v.state == vInt):
				v.state = vDot
			case (c == 'e' || c == 'E') && v.state != vExpDigits:
				v.state = vExp
			default:
				// The number ended: this byte belongs to what follows.
				v.state = vAfter
				continue
			}
		case vDot:
			if c < '0' || c > '9' {
				return i, reject
			}
			v.state = vFrac
		case vExp:
			switch {
			case c == '+' || c == '-':
				v.state = vExpSign
			case '0' <= c && c <= '9':
				v.state = vExpDigits
			default:
				return i, reject
			}
		case vExpSign:
			if c < '0' || c > '9' {
				return i, reject
			}
			v.state = vExpDigits
		case vLiteral:
			if c != v.lit[0] {
				return i, reject
			}
			if v.lit = v.lit[1:]; v.lit == "" {
				v.state = vAfter
			}
		}
		i++
	}
	return i, more
}

// start begins a value at c.
func (v *validator) start(c byte) bool {
	switch {
	case c == '{' || c == '[':
		if v.depth == maxDepth {
			return false
		}
		v.depth++
		if c == '{' {
			v.objs |= 1 << (v.depth - 1)
			v.state = vKeyOrClose
		} else {
			v.objs &^= 1 << (v.depth - 1)
			v.state = vValueOrClose
		}
	case c == '"':
		v.state, v.key = vString, false
	case c == '-':
		v.state = vMinus
	case c == '0':
		v.state = vZero
	case '1' <= c && c <= '9':
		v.state = vInt
	case c == 't':
		v.state, v.lit = vLiteral, "rue"
	case c == 'f':
		v.state, v.lit = vLiteral, "alse"
	case c == 'n':
		v.state, v.lit = vLiteral, "ull"
	default:
		return false
	}
	return true
}

// pop closes the innermost bracket and reports whether that ended the
// object.
func (v *validator) pop() bool {
	v.depth--
	v.state = vAfter
	return v.depth == 0
}

// Verbatim reports whether json.Marshal copies raw unchanged when it
// embeds it as a json.RawMessage: raw is one object in the compact form,
// with no byte the HTML escaping rewrites ('<', '>', '&', U+2028, U+2029).
// Where it reports false, json.Marshal compacts, escapes or refuses raw.
func Verbatim(raw []byte) bool {
	if len(raw) == 0 || raw[0] != '{' {
		return false
	}
	var v validator
	if n, st := v.scan(raw); st != done || n != len(raw) {
		return false
	}
	for i, c := range raw {
		switch {
		case c == '<' || c == '>' || c == '&':
			return false
		case c == 0xE2 && i+2 < len(raw) && raw[i+1] == 0x80 && raw[i+2]&^1 == 0xA8:
			return false
		}
	}
	return true
}
