package fddi

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"fafnet/internal/units"
)

func TestRingConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*RingConfig)
		wantErr bool
	}{
		{"default is valid", func(*RingConfig) {}, false},
		{"zero bandwidth", func(c *RingConfig) { c.BandwidthBps = 0 }, true},
		{"zero TTRT", func(c *RingConfig) { c.TTRT = 0 }, true},
		{"negative overhead", func(c *RingConfig) { c.Overhead = -1 }, true},
		{"overhead swallows TTRT", func(c *RingConfig) { c.Overhead = c.TTRT }, true},
		{"negative hop latency", func(c *RingConfig) { c.HopLatency = -1e-6 }, true},
		{"NaN bandwidth", func(c *RingConfig) { c.BandwidthBps = math.NaN() }, true},
		{"infinite bandwidth", func(c *RingConfig) { c.BandwidthBps = math.Inf(1) }, true},
		{"NaN TTRT", func(c *RingConfig) { c.TTRT = math.NaN() }, true},
		{"infinite TTRT", func(c *RingConfig) { c.TTRT = math.Inf(1) }, true},
		{"NaN overhead", func(c *RingConfig) { c.Overhead = math.NaN() }, true},
		{"infinite overhead", func(c *RingConfig) { c.Overhead = math.Inf(1) }, true},
		{"NaN hop latency", func(c *RingConfig) { c.HopLatency = math.NaN() }, true},
		{"infinite hop latency", func(c *RingConfig) { c.HopLatency = math.Inf(1) }, true},
		{"negative infinite hop latency", func(c *RingConfig) { c.HopLatency = math.Inf(-1) }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultRingConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestRingAllocationAccounting(t *testing.T) {
	r, err := NewRing(DefaultRingConfig())
	if err != nil {
		t.Fatal(err)
	}
	usable := DefaultTTRT - DefaultOverhead // 7 ms
	if got := r.Available(); !units.AlmostEq(got, usable) {
		t.Fatalf("empty ring Available = %v, want %v", got, usable)
	}

	if err := r.Allocate("c1", 2e-3); err != nil {
		t.Fatal(err)
	}
	if err := r.Allocate("c2", 3e-3); err != nil {
		t.Fatal(err)
	}
	if got := r.Allocated(); !units.AlmostEq(got, 5e-3) {
		t.Errorf("Allocated = %v, want 5e-3", got)
	}
	if got := r.Available(); !units.AlmostEq(got, usable-5e-3) {
		t.Errorf("Available = %v, want %v (Eq. 26)", got, usable-5e-3)
	}

	// Exceeding TTRT − Δ must fail.
	if err := r.Allocate("c3", 3e-3); err == nil {
		t.Error("allocation beyond TTRT − Δ should fail")
	}
	// Duplicate ids must fail.
	if err := r.Allocate("c1", 1e-4); err == nil {
		t.Error("duplicate allocation should fail")
	}
	// Non-positive must fail.
	if err := r.Allocate("c4", 0); err == nil {
		t.Error("zero allocation should fail")
	}

	if h, ok := r.Allocation("c2"); !ok || !units.AlmostEq(h, 3e-3) {
		t.Errorf("Allocation(c2) = %v, %v", h, ok)
	}
	ids := r.Connections()
	if len(ids) != 2 || ids[0] != "c1" || ids[1] != "c2" {
		t.Errorf("Connections = %v", ids)
	}

	if !r.Release("c1") {
		t.Error("Release(c1) should succeed")
	}
	if r.Release("c1") {
		t.Error("double Release should report false")
	}
	if got := r.Available(); !units.AlmostEq(got, usable-3e-3) {
		t.Errorf("Available after release = %v, want %v", got, usable-3e-3)
	}
	// The freed bandwidth is usable again.
	if err := r.Allocate("c3", 3.5e-3); err != nil {
		t.Errorf("allocation after release failed: %v", err)
	}
}

func TestFrameBits(t *testing.T) {
	cfg := DefaultRingConfig()
	// Small allocation: frame size = H·BW.
	if got := cfg.FrameBits(1e-4); !units.AlmostEq(got, 1e4) {
		t.Errorf("FrameBits(0.1ms) = %v, want 1e4", got)
	}
	// Large allocation clamps at the FDDI maximum frame.
	if got := cfg.FrameBits(5e-3); got != MaxFrameBits {
		t.Errorf("FrameBits(5ms) = %v, want %v", got, MaxFrameBits)
	}
}

func TestUsableTTRT(t *testing.T) {
	cfg := RingConfig{BandwidthBps: 1, TTRT: 0.01, Overhead: 0.002}
	if got := cfg.UsableTTRT(); !units.AlmostEq(got, 0.008) {
		t.Errorf("UsableTTRT = %v, want 0.008", got)
	}
}

// TestAllocatedDeterministic pins the Ω summation order: with allocations
// whose float sum is order-sensitive, Allocated must return the same bits on
// every call. The pre-fix implementation summed the allocation map in map
// iteration order, which made Eq. 26–27 availability — and every allocation
// interpolated from it — wobble by ULPs between identical calls.
func TestAllocatedDeterministic(t *testing.T) {
	r, err := NewRing(DefaultRingConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Values with spread exponents so partial-sum rounding depends on order.
	hs := []float64{1e-3, 1e-9, 3e-4, 7e-10, 2.5e-5, 1e-8, 4e-6, 9e-11}
	for i, h := range hs {
		if err := r.Allocate(fmt.Sprintf("c%d", i), h); err != nil {
			t.Fatal(err)
		}
	}
	want := math.Float64bits(r.Allocated())
	for i := 0; i < 200; i++ {
		if got := math.Float64bits(r.Allocated()); got != want {
			t.Fatalf("call %d: Allocated bits %x != %x", i, got, want)
		}
	}
	// The sum must equal the sorted-id-order sum exactly.
	ids := r.Connections()
	if !sort.StringsAreSorted(ids) {
		t.Fatal("Connections not sorted")
	}
	var ref float64
	for _, id := range ids {
		h, ok := r.Allocation(id)
		if !ok {
			t.Fatalf("missing allocation %q", id)
		}
		ref += h
	}
	if math.Float64bits(ref) != want {
		t.Fatalf("Allocated %x != sorted-order reference %x", want, math.Float64bits(ref))
	}
	// Release keeps the ledger consistent.
	if !r.Release("c3") {
		t.Fatal("release failed")
	}
	if got := len(r.Connections()); got != len(hs)-1 {
		t.Fatalf("after release: %d ids", got)
	}
	for i := 0; i < 50; i++ {
		if got := r.Allocated(); math.Float64bits(got) != math.Float64bits(r.Allocated()) {
			t.Fatal("Allocated unstable after release")
		}
	}
}
