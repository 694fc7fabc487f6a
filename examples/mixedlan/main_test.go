package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestOutputMatchesGolden pins the example's output byte for byte: every
// 802.5 MAC bound, the hand-assembled end-to-end budget and the integrated
// CAC's allocations over the mixed network. Regenerate deliberately with:
//
//	go test ./examples/mixedlan -run TestOutputMatchesGolden -update
func TestOutputMatchesGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "mixedlan.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("output differs from %s (regenerate with -update if the change is intended)\ngot:\n%s\nwant:\n%s",
			golden, buf.Bytes(), want)
	}
}
