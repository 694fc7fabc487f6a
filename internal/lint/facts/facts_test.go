package facts

import (
	"bytes"
	"testing"
)

type payload struct {
	T int8 `json:"t"`
	B int8 `json:"b"`
}

func TestRoundTrip(t *testing.T) {
	f := make(File)
	if err := f.Set("unitcheck", "Span", payload{T: 1}); err != nil {
		t.Fatal(err)
	}
	if err := f.Set("unitcheck", "Volume", payload{B: 1}); err != nil {
		t.Fatal(err)
	}
	data, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	var p payload
	if !g.Get("unitcheck", "Span", &p) || p.T != 1 {
		t.Errorf("Span fact did not survive the round trip: %+v", p)
	}
	if g.Get("unitcheck", "Missing", &p) {
		t.Error("Get reported a fact that was never set")
	}
	if g.Get("otherpass", "Span", &p) {
		t.Error("Get crossed analyzer namespaces")
	}
}

// TestEncodeDeterministic matters because the go command caches fact files
// by content: nondeterministic bytes would defeat the cache.
func TestEncodeDeterministic(t *testing.T) {
	build := func(order []string) []byte {
		f := make(File)
		for _, k := range order {
			if err := f.Set("unitcheck", k, payload{T: 1}); err != nil {
				t.Fatal(err)
			}
		}
		data, err := Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a := build([]string{"A", "B", "C"})
	b := build([]string{"C", "A", "B"})
	if !bytes.Equal(a, b) {
		t.Errorf("encoding depends on insertion order:\n%s\nvs\n%s", a, b)
	}
}

func TestEmpty(t *testing.T) {
	f, err := Decode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != 0 {
		t.Errorf("decoding empty input produced %d entries", len(f))
	}
	data, err := Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Errorf("encoding an empty file produced %q, want no bytes", data)
	}
}
