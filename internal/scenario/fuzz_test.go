package scenario

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParse feeds arbitrary bytes to Parse. Nothing may panic, and a
// scenario Parse accepts must survive its own JSON encoding unchanged —
// Parse of the re-marshalled document succeeds and returns an equal value —
// with every admit still converting to a core.ConnSpec.
//
// The committed corpus (testdata/fuzz/FuzzParse) is the built-in default
// scenario, one with a topology and CAC block, a release before its admit,
// an unknown rule, a 1e308 field and a truncated document.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		wire, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted scenario does not encode: %v", err)
		}
		back, err := Parse(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("scenario does not parse from its own encoding %s: %v", wire, err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("scenario changed in a round trip: %+v became %+v", s, back)
		}
		for i, a := range s.Actions {
			if a.Admit == nil {
				continue
			}
			if _, err := a.Admit.Spec(); err != nil {
				t.Fatalf("action %d of an accepted scenario has no spec: %v", i, err)
			}
		}
	})
}
