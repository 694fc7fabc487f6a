package jsonwire

import (
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// A Scanner parses the compact form a Buffer writes: no whitespace, keys
// without escapes, strings of valid UTF-8 whose escapes are the JSON ones
// other than surrogates, and numbers in JSON's grammar. Every method
// consumes one token and reports whether it was there; a false result
// leaves the position unspecified, and encoding/json must read the input
// instead. The input is one complete object (a Reader hands over nothing
// less), so running out of bytes is a refusal like any other.
//
// A schema parser built on a Scanner walks containers with Members, which
// refuses a repeated key; it must refuse unknown keys itself. What it then
// accepts, encoding/json decodes to the same value.
type Scanner struct {
	b   []byte
	i   int
	tmp []byte // unescaped string contents
}

// Reset points the scanner at the start of b.
func (s *Scanner) Reset(b []byte) {
	s.b, s.i = b, 0
}

// Pos returns the number of bytes consumed.
func (s *Scanner) Pos() int { return s.i }

// peek returns the next byte, if there is one.
func (s *Scanner) peek() (byte, bool) {
	if s.i >= len(s.b) {
		return 0, false
	}
	return s.b[s.i], true
}

// Byte consumes c if it is the next byte.
func (s *Scanner) Byte(c byte) bool {
	if b, ok := s.peek(); ok && b == c {
		s.i++
		return true
	}
	return false
}

// Key consumes an object key and its colon, returning the key's bytes.
// A key with an escape is refused: encoding/json unescapes it before
// matching, which a byte switch cannot.
func (s *Scanner) Key() ([]byte, bool) {
	if !s.Byte('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			key := s.b[start:s.i]
			s.i++
			return key, s.Byte(':')
		case c == '\\' || c < ' ':
			return nil, false
		}
	}
	return nil, false
}

// String consumes a string value and returns its contents, unescaped. The
// result aliases the input or the scanner's scratch space and is valid
// until the next call; copy it to keep it. Invalid UTF-8 and surrogate
// escapes are refused: encoding/json replaces them, and that is its call.
func (s *Scanner) String() ([]byte, bool) {
	if !s.Byte('"') {
		return nil, false
	}
	start := s.i
	for s.i < len(s.b) {
		c := s.b[s.i]
		switch {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c == '\\':
			s.tmp = append(s.tmp[:0], s.b[start:s.i]...)
			return s.escaped()
		case c < ' ':
			return nil, false
		case c < utf8.RuneSelf:
			s.i++
		default:
			if !s.rune() {
				return nil, false
			}
		}
	}
	return nil, false
}

// rune consumes one multi-byte UTF-8 sequence, refusing an invalid one.
func (s *Scanner) rune() bool {
	r, size := utf8.DecodeRune(s.b[s.i:])
	if r == utf8.RuneError && size == 1 {
		return false
	}
	s.i += size
	return true
}

// escaped finishes a string whose contents so far are in tmp and whose
// next byte is a backslash.
func (s *Scanner) escaped() ([]byte, bool) {
	for s.i < len(s.b) {
		c := s.b[s.i]
		switch {
		case c == '"':
			s.i++
			return s.tmp, true
		case c == '\\':
			if s.i+1 >= len(s.b) {
				return nil, false
			}
			e := s.b[s.i+1]
			s.i += 2
			switch e {
			case '"', '\\', '/':
				s.tmp = append(s.tmp, e)
			case 'b':
				s.tmp = append(s.tmp, '\b')
			case 'f':
				s.tmp = append(s.tmp, '\f')
			case 'n':
				s.tmp = append(s.tmp, '\n')
			case 'r':
				s.tmp = append(s.tmp, '\r')
			case 't':
				s.tmp = append(s.tmp, '\t')
			case 'u':
				r, ok := s.hex4()
				if !ok || utf16.IsSurrogate(r) {
					return nil, false
				}
				s.tmp = utf8.AppendRune(s.tmp, r)
			default:
				return nil, false
			}
		case c < ' ':
			return nil, false
		case c < utf8.RuneSelf:
			s.tmp = append(s.tmp, c)
			s.i++
		default:
			start := s.i
			if !s.rune() {
				return nil, false
			}
			s.tmp = append(s.tmp, s.b[start:s.i]...)
		}
	}
	return nil, false
}

// hex4 consumes the four hex digits of a \u escape.
func (s *Scanner) hex4() (rune, bool) {
	if s.i+4 > len(s.b) {
		return 0, false
	}
	var r rune
	for _, c := range s.b[s.i : s.i+4] {
		v := hexVal(c)
		if v < 0 {
			return 0, false
		}
		r = r<<4 | v
	}
	s.i += 4
	return r, true
}

// hexVal is the value of one hex digit, or -1.
func hexVal(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// number consumes a number in JSON's grammar and returns its text and
// whether it has a fraction or an exponent.
func (s *Scanner) number() (lit []byte, integral bool, ok bool) {
	start := s.i
	s.Byte('-')
	c, ok := s.peek()
	switch {
	case !ok:
		return nil, false, false
	case c == '0':
		s.i++
	case '1' <= c && c <= '9':
		s.digits()
	default:
		return nil, false, false
	}
	integral = true
	if s.Byte('.') {
		integral = false
		if !s.digits() {
			return nil, false, false
		}
	}
	if c, ok := s.peek(); ok && (c == 'e' || c == 'E') {
		s.i++
		integral = false
		if !s.Byte('+') {
			s.Byte('-')
		}
		if !s.digits() {
			return nil, false, false
		}
	}
	return s.b[start:s.i], integral, true
}

// digits consumes one or more decimal digits.
func (s *Scanner) digits() bool {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > start
}

// Float consumes a number as encoding/json decodes it into a float64. A
// number out of float64's range is refused (json reports it as a type
// error).
func (s *Scanner) Float() (float64, bool) {
	lit, _, ok := s.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}

// Int consumes an integer as encoding/json decodes it into an int. A
// number with a fraction or an exponent, or out of int's range, is refused:
// json reports it as a type error.
func (s *Scanner) Int() (int, bool) {
	lit, integral, ok := s.number()
	if !ok || !integral {
		return 0, false
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	return int(n), err == nil && int64(int(n)) == n
}

// Null consumes null.
func (s *Scanner) Null() bool { return s.literal("null") }

// Bool consumes true or false.
func (s *Scanner) Bool() (v bool, ok bool) {
	for _, lit := range [...]string{"false", "true"} {
		if s.literal(lit) {
			return lit == "true", true
		}
	}
	return false, false
}

// literal consumes lit if the input starts with it.
func (s *Scanner) literal(lit string) bool {
	rest := s.b[s.i:]
	if len(rest) < len(lit) || string(rest[:len(lit)]) != lit {
		return false
	}
	s.i += len(lit)
	return true
}

// Members walks the members of one object or array. A parse loop calls
// Next until it returns false, records each key's value with Set, calls
// Fail for an unknown key or an element that does not parse, and asks
// Closed whether the container ended with every member parsed.
type Members struct {
	s       *Scanner
	closing byte
	key     []byte
	n       int
	seen    uint64
	bad     bool
	end     bool
}

// Object consumes an object's '{' and returns a walk over its keys.
func (s *Scanner) Object() Members {
	return Members{s: s, closing: '}', bad: !s.Byte('{')}
}

// Array consumes an array's '[' and returns a walk over its elements.
func (s *Scanner) Array() Members {
	return Members{s: s, closing: ']', bad: !s.Byte('[')}
}

// Next consumes the ',' before the next member, and for an object its
// key, or the closing bracket after the last member.
func (m *Members) Next() bool {
	if m.bad {
		return false
	}
	if m.n > 0 && !m.s.Byte(',') || m.n == 0 && m.s.Byte(m.closing) {
		m.end = m.n == 0 || m.s.Byte(m.closing)
		m.bad = !m.end
		return false
	}
	m.n++
	if m.closing == '}' {
		var ok bool
		m.key, ok = m.s.Key()
		m.bad = !ok
		return ok
	}
	return true
}

// Key returns the current object key.
func (m *Members) Key() []byte { return m.key }

// Set records whether the value of the current key parsed; bit, at most
// 63, numbers the key. A key read twice fails the walk: encoding/json would
// let the second value overwrite, or merge into, the first.
func (m *Members) Set(ok bool, bit uint) {
	if !ok || m.seen&(1<<bit) != 0 {
		m.bad = true
	}
	m.seen |= 1 << bit
}

// Fail ends the walk unparsed: an unknown key, or a value of the wrong
// kind.
func (m *Members) Fail() { m.bad = true }

// Closed reports whether every member parsed and the container ended.
func (m *Members) Closed() bool { return m.end && !m.bad }
