package sim

import (
	"reflect"
	"testing"
)

// TestRunSameSeedByteIdentical strengthens the same-seed check to the whole
// Result: every statistic, counter and rejection tally must reproduce
// exactly, not just the headline AP.
func TestRunSameSeedByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("two full admission runs in -short mode")
	}
	a, err := Run(fastCfg(0.6, 17))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(fastCfg(0.6, 17))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different results:\n%+v\nvs\n%+v", a, b)
	}
}
