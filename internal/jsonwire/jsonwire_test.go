package jsonwire

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestAppendStringMatchesMarshal(t *testing.T) {
	cases := []string{"", "plain id", `"quoted" \back\`, "<a&b>", "tab\tnl\nbs\bff\fcr\r", "\u00e9\u2211\U0001F600",
		"\u2028\u2029", "\xff", "a\xc3", "\xed\xa0\x80", "\xef\xbf\xbd", "\x7f", "mixed\x00\x1f<\u2029\xfe>"}
	for c := 0; c < 256; c++ {
		cases = append(cases, string([]byte{byte(c)}), "x"+string([]byte{byte(c)})+"y")
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("appendString(%q) = %s, json.Marshal %s", s, got, want)
		}
	}
}

func TestAppendFloatMatchesMarshal(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 5e-324, 2.225073858507201e-308, 1e-6, math.Nextafter(1e-6, 0),
		1e21, math.Nextafter(1e21, 0), -1e21, 1e-7, 1e-10, 0.1, 100, 1e20, math.MaxFloat64, -math.SmallestNonzeroFloat64}
	// A deterministic spread over every exponent.
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 20000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		floats = append(floats, math.Float64frombits(x))
	}
	for _, f := range floats {
		want, werr := json.Marshal(f)
		got, ok := appendFloat(nil, f)
		switch {
		case werr != nil:
			if ok {
				t.Errorf("appendFloat(%v) = %s, json.Marshal fails: %v", f, got, werr)
			}
		case !ok || !bytes.Equal(got, want):
			t.Errorf("appendFloat(%v) = %s (ok %v), json.Marshal %s", f, got, ok, want)
		}
	}
}

func TestVerbatim(t *testing.T) {
	for _, c := range []struct {
		raw  string
		want bool
	}{
		{`{"id":"a","n":-0.5e+3,"b":[true,false,{}],"s":"\u00e9\"\\"}`, true},
		{`{}`, true},
		{"{\"bad\":\"\xff\"}", true}, // copied as is by json.Marshal too
		{`{"a":1}x`, false},
		{`{"a":1} `, false},
		{`{ "a":1}`, false},
		{`{"a":null}`, true},
		{`{"a":"<"}`, false},
		{`{"a":"&"}`, false},
		{"{\"a\":\"\u2028\"}", false},
		{`[1]`, false},
		{`{"a":01}`, false},
		{`{"a":1.}`, false},
		{`{"a":"\x"}`, false},
		{`{"a"}`, false},
		{`{"a":1,}`, false},
		{`{"a":[1,]}`, false},
		{`{"a":tru}`, false},
		{`"s"`, false},
		{``, false},
		{strings.Repeat(`{"a":`, 64) + `1` + strings.Repeat(`}`, 64), true},
		{strings.Repeat(`{"a":`, 65) + `1` + strings.Repeat(`}`, 65), false},
	} {
		if got := Verbatim([]byte(c.raw)); got != c.want {
			t.Errorf("Verbatim(%q) = %v, want %v", c.raw, got, c.want)
		}
		if !c.want {
			continue
		}
		out, err := json.Marshal(struct{ R json.RawMessage }{json.RawMessage(c.raw)})
		if err != nil || !bytes.Equal(out, []byte(`{"R":`+c.raw+`}`)) {
			t.Errorf("json.Marshal rewrites %q: %s, %v", c.raw, out, err)
		}
	}
}
