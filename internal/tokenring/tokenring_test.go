package tokenring

import (
	"errors"
	"testing"

	"fafnet/internal/fddi"
	"fafnet/internal/traffic"
	"fafnet/internal/units"
)

// macOn is Theorem 1 for a station granted tht per rotation on the segment.
func macOn(cfg RingConfig, in traffic.Descriptor, tht float64) (fddi.MACResult, error) {
	return fddi.AnalyzeMAC(in, fddi.MACParams{Ring: cfg.SimConfig(), H: tht}, fddi.Options{})
}

func TestRingConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*RingConfig)
		wantErr bool
	}{
		{"default valid", func(*RingConfig) {}, false},
		{"zero bandwidth", func(c *RingConfig) { c.BandwidthBps = 0 }, true},
		{"zero rotation", func(c *RingConfig) { c.TargetRotation = 0 }, true},
		{"negative walk", func(c *RingConfig) { c.WalkTime = -1 }, true},
		{"walk swallows rotation", func(c *RingConfig) { c.WalkTime = c.TargetRotation }, true},
		{"negative hop latency", func(c *RingConfig) { c.HopLatency = -1 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultRingConfig()
			tt.mutate(&cfg)
			if err := cfg.SimConfig().Validate(); (err != nil) != tt.wantErr {
				t.Errorf("SimConfig().Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

// TestRingAllocation: the segment's THT ledger is the timed-token one on the
// mapped config, ΣTHT + WalkTime <= TargetRotation.
func TestRingAllocation(t *testing.T) {
	r, err := fddi.NewRing(DefaultRingConfig().SimConfig())
	if err != nil {
		t.Fatal(err)
	}
	usable := 8e-3 - 0.5e-3
	if got := r.Available(); !units.AlmostEq(got, usable) {
		t.Fatalf("Available = %v, want %v", got, usable)
	}
	if err := r.Allocate("a", 3e-3); err != nil {
		t.Fatal(err)
	}
	if err := r.Allocate("b", 5e-3); err == nil {
		t.Error("over-allocation should fail")
	}
	if got := r.Allocated(); !units.AlmostEq(got, 3e-3) {
		t.Errorf("Allocated = %v", got)
	}
	if !r.Release("a") {
		t.Error("Release should succeed")
	}
	if r.Release("a") {
		t.Error("double Release should report false")
	}
}

func TestAnalyzeMACMirrorsTheorem1(t *testing.T) {
	// On a 16 Mb/s ring with an 8 ms rotation target, a 16 kbit burst every
	// 10 ms with THT = 2 ms (service 32 kbit/rotation) mirrors the FDDI
	// closed-form test: busy interval ends at the first k·8 ms with
	// A(k·8ms) <= (k−1)·32k → k=2 → B = 16 ms; worst delay → 16 ms.
	in, err := traffic.NewPeriodic(16e3, 0.010, 16e6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := macOn(DefaultRingConfig(), in, 2e-3)
	if err != nil {
		t.Fatal(err)
	}
	if !units.AlmostEq(res.BusyInterval, 0.016) {
		t.Errorf("BusyInterval = %v, want 0.016", res.BusyInterval)
	}
	if !units.WithinRel(res.Delay, 0.016, 1e-6) {
		t.Errorf("Delay = %v, want 0.016", res.Delay)
	}
	if res.Output == nil {
		t.Fatal("no output envelope")
	}
	// The output cannot exceed the 16 Mb/s medium.
	for i := 1; i <= 100; i++ {
		iv := float64(i) * 1e-3
		if got := res.Output.Bits(iv); got > 16e6*iv*(1+units.RelTol)+units.Eps {
			t.Fatalf("output Bits(%v) = %v exceeds medium rate", iv, got)
		}
	}
}

func TestAnalyzeMACOverload(t *testing.T) {
	// 4 Mb/s sustained on a THT worth only 2 Mb/s.
	in, err := traffic.NewCBR(4e6)
	if err != nil {
		t.Fatal(err)
	}
	_, err = macOn(DefaultRingConfig(), in, 1e-3)
	if !errors.Is(err, fddi.ErrOverload) {
		t.Errorf("err = %v, want fddi.ErrOverload", err)
	}
}

func TestTHTMonotoneDelay(t *testing.T) {
	in, err := traffic.NewPeriodic(16e3, 0.010, 16e6)
	if err != nil {
		t.Fatal(err)
	}
	prev := 1e9
	for _, tht := range []float64{1.5e-3, 2e-3, 3e-3, 5e-3} {
		res, err := macOn(DefaultRingConfig(), in, tht)
		if err != nil {
			t.Fatalf("THT=%v: %v", tht, err)
		}
		if res.Delay > prev+units.Eps {
			t.Errorf("THT=%v: delay %v exceeds %v at smaller THT", tht, res.Delay, prev)
		}
		prev = res.Delay
	}
}
