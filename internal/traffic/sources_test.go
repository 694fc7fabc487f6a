package traffic

import (
	"math"
	"testing"
	"testing/quick"

	"fafnet/internal/units"
)

func TestNewCBR(t *testing.T) {
	if _, err := NewCBR(-1); err == nil {
		t.Error("negative rate should be rejected")
	}
	c, err := NewCBR(10 * units.Mbps)
	if err != nil {
		t.Fatalf("NewCBR: %v", err)
	}
	if got := c.Bits(0.5); got != 5e6 {
		t.Errorf("Bits(0.5) = %v, want 5e6", got)
	}
	if got := c.LongTermRate(); got != 10e6 {
		t.Errorf("LongTermRate = %v, want 10e6", got)
	}
	if got := c.Bits(-1); got != 0 {
		t.Errorf("Bits(-1) = %v, want 0", got)
	}
}

func TestNewPeriodicValidation(t *testing.T) {
	tests := []struct {
		name       string
		c, p, peak float64
		wantErr    bool
	}{
		{"valid", 1e5, 0.01, 100e6, false},
		{"zero C", 0, 0.01, 100e6, true},
		{"zero P", 1e5, 0, 100e6, true},
		{"zero peak", 1e5, 0.01, 0, true},
		{"peak too slow for period", 1e6, 0.001, 100e6, true}, // needs 1 Gbps
		{"peak exactly sufficient", 1e5, 0.001, 100e6, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewPeriodic(tt.c, tt.p, tt.peak)
			if (err != nil) != tt.wantErr {
				t.Errorf("NewPeriodic(%v,%v,%v) error = %v, wantErr %v", tt.c, tt.p, tt.peak, err, tt.wantErr)
			}
		})
	}
}

func TestPeriodicBits(t *testing.T) {
	// 100 kbit every 10 ms at 100 Mbps peak: burst lasts 1 ms.
	s, err := NewPeriodic(1e5, 0.010, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		interval float64
		want     float64
	}{
		{0, 0},
		{0.0005, 0.0005 * 100e6}, // mid-burst: peak-rate limited
		{0.001, 1e5},             // exactly one burst
		{0.005, 1e5},             // idle part of the period
		{0.010, 1e5},             // one full period
		{0.011, 2e5},             // second burst fully inside the window
		{0.020, 2e5},
		{0.0305, 3e5 + 0.0005*100e6},
	}
	for _, tt := range tests {
		if got := s.Bits(tt.interval); !units.AlmostEq(got, tt.want) {
			t.Errorf("Bits(%v) = %v, want %v", tt.interval, got, tt.want)
		}
	}
	if got := s.LongTermRate(); !units.AlmostEq(got, 1e7) {
		t.Errorf("LongTermRate = %v, want 1e7", got)
	}
}

func TestNewDualPeriodicValidation(t *testing.T) {
	tests := []struct {
		name                 string
		c1, p1, c2, p2, peak float64
		wantErr              bool
	}{
		{"valid paper defaults", 150e3, 0.010, 30e3, 0.001, 100e6, false},
		{"P2 exceeds P1", 150e3, 0.010, 30e3, 0.020, 100e6, true},
		{"C2 exceeds C1", 150e3, 0.010, 200e3, 0.001, 1e9, true},
		{"short rate below long rate", 150e3, 0.010, 1e3, 0.001, 100e6, true},
		{"peak insufficient for C2/P2", 150e3, 0.010, 30e3, 0.001, 10e6, true},
		{"degenerate equal periods", 150e3, 0.010, 150e3, 0.010, 100e6, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewDualPeriodic(tt.c1, tt.p1, tt.c2, tt.p2, tt.peak)
			if (err != nil) != tt.wantErr {
				t.Errorf("error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestDualPeriodicBits(t *testing.T) {
	// C1=150 kbit / P1=10 ms, C2=30 kbit / P2=1 ms, peak 100 Mbps.
	// Each 1 ms sub-period allows a 30 kbit burst lasting 0.3 ms at peak.
	s, err := NewDualPeriodic(150e3, 0.010, 30e3, 0.001, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		interval float64
		want     float64
	}{
		{0, 0},
		{0.0001, 0.0001 * 100e6}, // 10 kbit: inside first burst
		{0.0003, 30e3},           // exactly one sub-burst
		{0.001, 30e3},            // one sub-period
		{0.0043, 4*30e3 + 30e3},  // 4 sub-periods + full burst of the fifth
		{0.005, 150e3},           // five sub-bursts reach C1
		{0.009, 150e3},           // capped at C1 within P1
		{0.010, 150e3},           // one full period
		{0.0103, 150e3 + 30e3},   // next period's first burst
		{0.020, 300e3},
	}
	for _, tt := range tests {
		if got := s.Bits(tt.interval); !units.AlmostEq(got, tt.want) {
			t.Errorf("Bits(%v) = %v, want %v", tt.interval, got, tt.want)
		}
	}
	if got := s.LongTermRate(); !units.AlmostEq(got, 15e6) {
		t.Errorf("LongTermRate = %v, want 15e6", got)
	}
}

func TestDualPeriodicReducesToPeriodic(t *testing.T) {
	// With C2=C1 and P2=P1 the dual-periodic model must match the one-period
	// model everywhere.
	d, err := NewDualPeriodic(1e5, 0.008, 1e5, 0.008, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPeriodic(1e5, 0.008, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 400; i++ {
		iv := float64(i) * 0.0001
		if got, want := d.Bits(iv), p.Bits(iv); !units.AlmostEq(got, want) {
			t.Fatalf("Bits(%v): dual=%v periodic=%v", iv, got, want)
		}
	}
}

func TestLeakyBucket(t *testing.T) {
	if _, err := NewLeakyBucket(-1, 1e6, 0); err == nil {
		t.Error("negative sigma should be rejected")
	}
	if _, err := NewLeakyBucket(1e4, 1e6, 1e5); err == nil {
		t.Error("peak below rho should be rejected")
	}
	b, err := NewLeakyBucket(1e4, 1e6, 10e6)
	if err != nil {
		t.Fatal(err)
	}
	// Before the knee (σ/(peak−ρ) = 1e4/9e6 ≈ 1.11 ms) the peak segment rules.
	if got, want := b.Bits(0.0005), 0.0005*10e6; !units.AlmostEq(got, want) {
		t.Errorf("Bits(0.5ms) = %v, want %v", got, want)
	}
	// Beyond the knee the bucket segment rules.
	if got, want := b.Bits(1.0), 1e4+1e6; !units.AlmostEq(got, want) {
		t.Errorf("Bits(1s) = %v, want %v", got, want)
	}
	f := Flatten(b, 10)
	if f == nil || f.Segments() != 2 || !units.AlmostEq(f.ts[1], 1e4/9e6) {
		t.Errorf("lowered to %v, want a single knee at %v", f, 1e4/9e6)
	}
	// Uncapped bucket has an instantaneous burst.
	u, err := NewLeakyBucket(1e4, 1e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := u.Bits(1e-12); got < 1e4 {
		t.Errorf("uncapped Bits(1ps) = %v, want at least the burst 1e4", got)
	}
}

// descriptorsUnderTest returns one representative of every source model with
// paper-scale parameters.
func descriptorsUnderTest(t *testing.T) map[string]Descriptor {
	t.Helper()
	dp, err := NewDualPeriodic(150e3, 0.010, 30e3, 0.001, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPeriodic(1e5, 0.005, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := NewLeakyBucket(5e4, 12e6, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	cbr, err := NewCBR(8e6)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Descriptor{"dualPeriodic": dp, "periodic": p, "leakyBucket": lb, "cbr": cbr}
}

func TestBitsMonotoneProperty(t *testing.T) {
	for name, d := range descriptorsUnderTest(t) {
		d := d
		t.Run(name, func(t *testing.T) {
			f := func(a, b float64) bool {
				a = math.Mod(math.Abs(a), 1.0)
				b = math.Mod(math.Abs(b), 1.0)
				if a > b {
					a, b = b, a
				}
				return d.Bits(a) <= d.Bits(b)+units.Eps
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestLongTermRateIsLimitProperty(t *testing.T) {
	// Γ(I) must approach LongTermRate from above as I grows.
	for name, d := range descriptorsUnderTest(t) {
		d := d
		t.Run(name, func(t *testing.T) {
			rho := d.LongTermRate()
			for _, iv := range []float64{10, 100, 1000} {
				if a := d.Bits(iv); a < rho*iv*(1-1e-6) {
					t.Errorf("Bits(%v) = %v below rho·I = %v", iv, a, rho*iv)
				}
			}
			if r := d.Bits(1e4) / 1e4; !units.WithinRel(r, rho, 0.01) {
				t.Errorf("Bits(1e4)/1e4 = %v does not approach rho = %v", r, rho)
			}
		})
	}
}

func TestPeakRateBoundsShortWindows(t *testing.T) {
	// For every source model, A(I) <= Peak·I with the model's declared peak.
	for name, d := range descriptorsUnderTest(t) {
		var peak float64
		switch v := d.(type) {
		case CBR:
			peak = v.RateBps
		case Periodic:
			peak = v.PeakBps
		case DualPeriodic:
			peak = v.PeakBps
		case LeakyBucket:
			peak = v.PeakBps
		default:
			t.Fatalf("%s: no declared peak for %T", name, d)
		}
		t.Run(name, func(t *testing.T) {
			for i := 1; i <= 1000; i++ {
				iv := float64(i) * 1e-5
				if got := d.Bits(iv); got > peak*iv*(1+units.RelTol)+units.Eps {
					t.Fatalf("Bits(%v) = %v exceeds peak bound %v", iv, got, peak*iv)
				}
			}
		})
	}
}
