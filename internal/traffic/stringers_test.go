package traffic

import (
	"fmt"
	"strings"
	"testing"
)

// TestStringers exercises every descriptor's String and confirms the output
// names the model (useful in logs and error chains).
func TestStringers(t *testing.T) {
	dp := mustDual(t)
	p, err := NewPeriodic(1e5, 0.01, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := NewLeakyBucket(1e4, 1e6, 1e7)
	if err != nil {
		t.Fatal(err)
	}
	del, err := NewDelayed(dp, 1e-3, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuantized(dp, 36000, 94*384)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := NewRateCapped(dp, 50e6)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMin(dp, lb)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		d    fmt.Stringer
		want string
	}{
		{CBR{RateBps: 1e6}, "CBR"},
		{p, "Periodic"},
		{dp, "DualPeriodic"},
		{lb, "LeakyBucket"},
		{NewAggregate(dp, p), "Aggregate"},
		{del, "Delayed"},
		{q, "Quantized"},
		{rc, "RateCapped"},
		{m, "Min"},
	}
	for _, tt := range tests {
		if got := tt.d.String(); !strings.Contains(got, tt.want) {
			t.Errorf("String() = %q, want it to contain %q", got, tt.want)
		}
	}
}

// TestMinLongTermRate covers Min.LongTermRate: the smallest member's.
func TestMinLongTermRate(t *testing.T) {
	m, err := NewMin(CBR{RateBps: 9e6}, CBR{RateBps: 2e6})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.LongTermRate(); got != 2e6 {
		t.Errorf("LongTermRate = %v", got)
	}
}
