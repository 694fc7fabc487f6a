package atm

import (
	"math"
	"testing"

	"fafnet/internal/units"
)

func TestPayloadCapacity(t *testing.T) {
	got := PayloadCapacity(155e6)
	want := 155e6 * 384.0 / 424.0
	if !units.AlmostEq(got, want) {
		t.Errorf("PayloadCapacity(155e6) = %v, want %v", got, want)
	}
}

func TestCellTime(t *testing.T) {
	got := CellTime(155e6)
	want := 424.0 / 155e6
	if !units.AlmostEq(got, want) {
		t.Errorf("CellTime = %v, want %v", got, want)
	}
}

func TestCellsPerFrame(t *testing.T) {
	tests := []struct {
		frameBits float64
		want      int
	}{
		{0, 0},
		{-5, 0},
		{1, 1},
		{384, 1},
		{385, 2},
		{36000, 94}, // max FDDI frame: 36000/384 = 93.75
		{768, 2},
	}
	for _, tt := range tests {
		if got := CellsPerFrame(tt.frameBits); got != tt.want {
			t.Errorf("CellsPerFrame(%v) = %d, want %d", tt.frameBits, got, tt.want)
		}
	}
}

func TestSwitchParamsValidate(t *testing.T) {
	if err := DefaultSwitchParams().Validate(); err != nil {
		t.Errorf("defaults invalid: %v", err)
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := (SwitchParams{InputDelay: bad}).Validate(); err == nil {
			t.Errorf("input delay %v should be rejected", bad)
		}
		if err := (SwitchParams{FabricDelay: bad}).Validate(); err == nil {
			t.Errorf("fabric delay %v should be rejected", bad)
		}
	}
	p := SwitchParams{InputDelay: 1e-5, FabricDelay: 2e-5}
	if got := p.ConstantDelay(); !units.AlmostEq(got, 3e-5) {
		t.Errorf("ConstantDelay = %v, want 3e-5", got)
	}
}
