package traffic

import (
	"fmt"
	"slices"
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

// TestBreakpointDelegation covers the BreakpointAppender plumbing through
// every transform.
func TestBreakpointDelegation(t *testing.T) {
	dp := mustDual(t)
	del, err := NewDelayed(dp, 1e-3, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuantized(del, 36000, 94*384)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := NewRateCapped(q, 140e6)
	if err != nil {
		t.Fatal(err)
	}
	if bps := rc.AppendBreakpoints(nil, 0.02); len(bps) == 0 {
		t.Error("transform chain lost the source's breakpoints")
	}
	// Delegation over a provider-less inner yields nothing, not a panic.
	qq, err := NewQuantized(CBR{RateBps: 1e6}, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if bps := qq.AppendBreakpoints(nil, 1); bps != nil {
		t.Errorf("CBR-backed Quantized breakpoints = %v, want nil", bps)
	}
	dd, err := NewDelayed(CBR{RateBps: 1e6}, 1e-3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bps := dd.AppendBreakpoints(nil, 1); bps != nil {
		t.Errorf("CBR-backed Delayed breakpoints = %v, want nil", bps)
	}
	rr, err := NewRateCapped(CBR{RateBps: 1e6}, 2e6)
	if err != nil {
		t.Fatal(err)
	}
	if bps := rr.AppendBreakpoints(nil, 1); bps != nil {
		t.Errorf("CBR-backed RateCapped breakpoints = %v, want nil", bps)
	}
	mm, err := NewMin(CBR{RateBps: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if bps := mm.AppendBreakpoints(nil, 1); len(bps) != 0 {
		t.Errorf("CBR-backed Min breakpoints = %v, want none", bps)
	}
}

// TestMinLongTermRateAndBreakpoints covers Min.LongTermRate and Min's
// enumeration: the members' own, member by member, behind the caller's
// points.
func TestMinLongTermRateAndBreakpoints(t *testing.T) {
	m, err := NewMin(CBR{RateBps: 9e6}, CBR{RateBps: 2e6})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.LongTermRate(); got != 2e6 {
		t.Errorf("LongTermRate = %v", got)
	}
	dp := mustDual(t)
	lb, err := NewLeakyBucket(1e4, 1e6, 1e7)
	if err != nil {
		t.Fatal(err)
	}
	m, err = NewMin(dp, CBR{RateBps: 1e6}, lb)
	if err != nil {
		t.Fatal(err)
	}
	want := lb.AppendBreakpoints(dp.AppendBreakpoints([]float64{-1}, 0.02), 0.02)
	if got := m.AppendBreakpoints([]float64{-1}, 0.02); !slices.Equal(got, want) {
		t.Errorf("AppendBreakpoints = %v, want %v", got, want)
	}
}
