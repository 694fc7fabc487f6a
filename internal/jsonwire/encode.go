// Package jsonwire writes and reads the compact JSON that encoding/json
// produces, without reflection. It holds what the signaling wire and the
// audit log share: a [Buffer] that appends strings, floats and integers byte
// for byte as json.Marshal writes them, a [Scanner] that parses values of
// that compact form and refuses everything else, and a [Reader] that decodes
// a stream of such values and hands any other input to a json.Decoder.
//
// Nothing here replaces encoding/json's semantics: whenever an input or a
// value falls outside what this package reproduces exactly (a NaN, a key it
// does not know, whitespace), the callers defer to encoding/json,
// so its results and its errors are the ones that surface.
package jsonwire

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// A Buffer accumulates JSON text in a reusable byte slice. It remembers a
// float that encoding/json refuses (NaN, ±Inf): the text is then not what
// json.Marshal writes, and OK reports false so the caller can defer to
// encoding/json for the error.
type Buffer struct {
	b   []byte
	bad bool
}

// Reset empties the buffer, keeping its storage.
func (w *Buffer) Reset() {
	w.b = w.b[:0]
	w.bad = false
}

// Bytes returns the text appended since the last Reset. It aliases the
// buffer's storage until the next Reset.
func (w *Buffer) Bytes() []byte { return w.b }

// OK reports whether every float appended since the last Reset was finite.
func (w *Buffer) OK() bool { return !w.bad }

// Raw appends s verbatim: structural bytes and pre-quoted keys.
func (w *Buffer) Raw(s string) { w.b = append(w.b, s...) }

// RawBytes appends b verbatim.
func (w *Buffer) RawBytes(b []byte) { w.b = append(w.b, b...) }

// Byte appends one structural byte.
func (w *Buffer) Byte(c byte) { w.b = append(w.b, c) }

// String appends s as a quoted JSON string.
func (w *Buffer) String(s string) { w.b = appendString(w.b, s) }

// Float appends f as json.Marshal writes a float64.
func (w *Buffer) Float(f float64) {
	var ok bool
	w.b, ok = appendFloat(w.b, f)
	w.bad = w.bad || !ok
}

// OmitFloat appends key and f unless f is zero, as encoding/json writes an
// omitempty float field; key is the pre-quoted key with its separators.
func (w *Buffer) OmitFloat(key string, f float64) {
	if f != 0 {
		w.Raw(key)
		w.Float(f)
	}
}

// OmitString appends key and s unless s is empty, as encoding/json writes
// an omitempty string field.
func (w *Buffer) OmitString(key, s string) {
	if s != "" {
		w.Raw(key)
		w.String(s)
	}
}

// Int appends a signed integer.
func (w *Buffer) Int(i int64) { w.b = strconv.AppendInt(w.b, i, 10) }

// Uint appends an unsigned integer.
func (w *Buffer) Uint(u uint64) { w.b = strconv.AppendUint(w.b, u, 10) }

// Bool appends true or false.
func (w *Buffer) Bool(v bool) { w.b = strconv.AppendBool(w.b, v) }

// hex is the digit set of encoding/json's \u00XX escapes.
const hex = "0123456789abcdef"

// htmlSafe marks the ASCII bytes encoding/json copies into a string
// verbatim when HTML escaping is on, as it is for json.Marshal and a default
// json.Encoder: everything printable except '"', '\\', '<', '>' and '&'.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// appendString appends s quoted exactly as json.Marshal writes a string:
// '"' and '\\' backslash-escaped; \b, \f, \n, \r and \t by name; other
// control bytes and '<', '>', '&' as \u00XX; U+2028 and U+2029 as
// \u2028 and \u2029; each byte of invalid UTF-8 as \ufffd; everything else
// verbatim.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendFloat appends f as json.Marshal writes a float64: the shortest
// representation that round-trips, in ES6 form — fixed notation, switching
// to an exponent below 1e-6 and at or above 1e21, with exponents unpadded
// ("1e-7", not "1e-07"). ok is false for NaN and ±Inf, which json.Marshal
// refuses; nothing is appended then.
func appendFloat(dst []byte, f float64) (_ []byte, ok bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) { //lint:allow epslit encoding/json's ES6 notation cut-offs, not a tolerance
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}
