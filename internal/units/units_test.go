package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAlmostLE(t *testing.T) {
	tests := []struct {
		name string
		a, b float64
		want bool
	}{
		{"strictly less", 1.0, 2.0, true},
		{"equal", 3.5, 3.5, true},
		{"just above within rel tol", 1.0 + 1e-12, 1.0, true},
		{"clearly above", 1.001, 1.0, false},
		{"zero vs eps", Eps / 2, 0, true},
		{"negative ordering", -2, -1, true},
		{"negative violation", -1, -2, false},
		{"large magnitudes within tol", 1e12 * (1 + 1e-13), 1e12, true},
		{"large magnitudes violation", 1e12 * 1.001, 1e12, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := AlmostLE(tt.a, tt.b); got != tt.want {
				t.Errorf("AlmostLE(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestAlmostGEAndEq(t *testing.T) {
	if !AlmostGE(2, 1) {
		t.Error("AlmostGE(2,1) should be true")
	}
	if AlmostGE(1, 2) {
		t.Error("AlmostGE(1,2) should be false")
	}
	if !AlmostEq(1.0, 1.0+1e-13) {
		t.Error("AlmostEq should tolerate tiny differences")
	}
	if AlmostEq(1.0, 1.1) {
		t.Error("AlmostEq(1.0, 1.1) should be false")
	}
}

func TestWithinRel(t *testing.T) {
	if !WithinRel(100, 100.4, 0.005) {
		t.Error("0.4% difference should be within 0.5% tolerance")
	}
	if WithinRel(100, 101, 0.005) {
		t.Error("1% difference should exceed 0.5% tolerance")
	}
	if !WithinRel(0, 0, 0.001) {
		t.Error("zero vs zero should be within any tolerance")
	}
}

func TestCeilDiv(t *testing.T) {
	tests := []struct {
		a, b, want float64
	}{
		{0, 5, 0},
		{-3, 5, 0},
		{10, 5, 2},
		{11, 5, 3},
		{9.999999999999, 5, 2}, // near-exact multiple treated as exact
		{10.000000000001, 5, 2},
		{1e-12, 5, 1}, // a positive quotient below the snap radius is not noise around 0
		{1, 3, 1},
		{4500 * 8, 384, 94}, // FDDI max frame to ATM cells: 36000/384 = 93.75
	}
	for _, tt := range tests {
		if got := CeilDiv(tt.a, tt.b); got != tt.want {
			t.Errorf("CeilDiv(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestFloorDiv(t *testing.T) {
	tests := []struct {
		a, b, want float64
	}{
		{0, 5, 0},
		{-1, 5, 0},
		{10, 5, 2},
		{14.9, 5, 2},
		{14.999999999999999, 5, 3}, // infinitesimally below a multiple rounds up
	}
	for _, tt := range tests {
		if got := FloorDiv(tt.a, tt.b); got != tt.want {
			t.Errorf("FloorDiv(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestClamp(t *testing.T) {
	if got := Clamp(5, 0, 3); got != 3 {
		t.Errorf("Clamp(5,0,3) = %v, want 3", got)
	}
	if got := Clamp(-1, 0, 3); got != 0 {
		t.Errorf("Clamp(-1,0,3) = %v, want 0", got)
	}
	if got := Clamp(2, 0, 3); got != 2 {
		t.Errorf("Clamp(2,0,3) = %v, want 2", got)
	}
}

func TestCeilFloorDivConsistency(t *testing.T) {
	// Property: for positive a, b: FloorDiv <= a/b <= CeilDiv and they differ
	// by at most 1.
	f := func(a, b float64) bool {
		a = math.Abs(a)
		b = math.Abs(b)
		if b < 1e-9 || a > 1e15 || b > 1e15 {
			return true // outside the supported numeric range
		}
		fl, ce := FloorDiv(a, b), CeilDiv(a, b)
		return fl <= ce && ce-fl <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClampProperty(t *testing.T) {
	f := func(v, lo, hi float64) bool {
		if lo > hi {
			lo, hi = hi, lo
		}
		got := Clamp(v, lo, hi)
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
