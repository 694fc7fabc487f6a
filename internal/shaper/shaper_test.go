package shaper

import (
	"errors"
	"testing"

	"fafnet/internal/des"
	"fafnet/internal/traffic"
	"fafnet/internal/units"
)

func TestSpecValidate(t *testing.T) {
	if err := (Spec{SigmaBits: 0, RhoBps: 1}).Validate(); err == nil {
		t.Error("zero sigma should be rejected")
	}
	if err := (Spec{SigmaBits: 1, RhoBps: 0}).Validate(); err == nil {
		t.Error("zero rho should be rejected")
	}
	if err := (Spec{SigmaBits: 1e4, RhoBps: 1e6}).Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestAnalyzeClosedForm(t *testing.T) {
	// Instantaneous 100 kbit bursts every 10 ms through a (40 kbit, 12 Mb/s)
	// bucket: worst lag at t→0 is (C − σ)/ρ = 60k/12M = 5 ms.
	in, err := traffic.NewPeriodic(1e5, 0.010, 1e12)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(in, Spec{SigmaBits: 4e4, RhoBps: 12e6})
	if err != nil {
		t.Fatal(err)
	}
	// Exact value is 5 ms minus the 0.1 µs burst spread at the declared
	// peak rate.
	if !units.WithinRel(res.Delay, 5e-3, 1e-4) {
		t.Errorf("Delay = %v, want ≈5 ms", res.Delay)
	}
	// The output conforms to the bucket everywhere.
	for i := 1; i <= 400; i++ {
		iv := float64(i) * 1e-4
		if got := res.Output.Bits(iv); got > 4e4+12e6*iv+units.Eps {
			t.Fatalf("output violates the bucket at I=%v: %v", iv, got)
		}
	}
	// And never exceeds what the delayed input could supply.
	if got := res.Output.Bits(1.0); got > in.Bits(1.0+res.Delay)+units.Eps {
		t.Errorf("output exceeds delayed input over 1 s: %v", got)
	}
}

func TestAnalyzeConformantInputPassesFreely(t *testing.T) {
	in, err := traffic.NewCBR(5e6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(in, Spec{SigmaBits: 1e4, RhoBps: 10e6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delay > 1e-9 {
		t.Errorf("conformant traffic delayed by %v", res.Delay)
	}
}

func TestAnalyzeUnstable(t *testing.T) {
	in, err := traffic.NewCBR(20e6)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Analyze(in, Spec{SigmaBits: 1e4, RhoBps: 10e6})
	if !errors.Is(err, ErrUnstable) {
		t.Errorf("err = %v, want ErrUnstable", err)
	}
	if _, err := Analyze(nil, Spec{SigmaBits: 1, RhoBps: 1}); err == nil {
		t.Error("nil input should be rejected")
	}
}

func TestSimConformantPassesImmediately(t *testing.T) {
	sim := des.NewSimulator()
	var released []float64
	sh, err := NewSim(sim, Spec{SigmaBits: 5e4, RhoBps: 10e6}, func(id string, bits, origin float64) {
		released = append(released, sim.Now())
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Submit("a", 2e4, 0); err != nil {
		t.Fatal(err)
	}
	sim.Run(1)
	if len(released) != 1 || released[0] != 0 {
		t.Errorf("conformant frame released at %v, want immediately", released)
	}
}

func TestSimShapesBurst(t *testing.T) {
	// Bucket (30 kbit, 10 Mb/s); three 20 kbit frames at t=0: the first
	// passes (bucket 30k→10k), the second waits for 10k more tokens (1 ms),
	// the third waits another 2 ms.
	sim := des.NewSimulator()
	var times []float64
	sh, err := NewSim(sim, Spec{SigmaBits: 3e4, RhoBps: 10e6}, func(id string, bits, origin float64) {
		times = append(times, sim.Now())
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := sh.Submit("a", 2e4, 0); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run(1)
	want := []float64{0, 1e-3, 3e-3}
	if len(times) != 3 {
		t.Fatalf("released %d frames", len(times))
	}
	for i := range want {
		if !units.WithinRel(times[i], want[i], 1e-9) && !(want[i] == 0 && times[i] == 0) {
			t.Errorf("release %d at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestSimMatchesAnalysis(t *testing.T) {
	// Periodic bursts through the simulator: the measured worst shaping
	// delay must stay below the analysis bound.
	const (
		frameBits = 2e4
		burst     = 5 // frames per burst → 100 kbit
		period    = 10e-3
	)
	spec := Spec{SigmaBits: 4e4, RhoBps: 12e6}
	in, err := traffic.NewPeriodic(burst*frameBits, period, 1e12)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := Analyze(in, spec)
	if err != nil {
		t.Fatal(err)
	}

	sim := des.NewSimulator()
	var worst float64
	sh, err := NewSim(sim, spec, func(id string, bits, origin float64) {
		if d := sim.Now() - origin; d > worst {
			worst = d
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var tick func()
	tick = func() {
		if sim.Now() > 1.0 {
			return
		}
		for i := 0; i < burst; i++ {
			if err := sh.Submit("a", frameBits, sim.Now()); err != nil {
				t.Errorf("submit: %v", err)
			}
		}
		if _, err := sim.After(period, tick); err != nil {
			t.Errorf("schedule: %v", err)
		}
	}
	if _, err := sim.Schedule(0, tick); err != nil {
		t.Fatal(err)
	}
	sim.Run(2)
	if worst <= 0 {
		t.Fatal("no shaping delay measured")
	}
	// The envelope spreads each burst at the declared peak (1e12 b/s ≈
	// 0.1 µs per burst) while the simulator submits instantaneously, so
	// allow exactly that spread as slack.
	spread := burst * frameBits / 1e12
	if worst > bound.Delay+spread+units.Eps {
		t.Errorf("measured shaping delay %v exceeds bound %v (+spread %v)", worst, bound.Delay, spread)
	}
}

func TestSimValidation(t *testing.T) {
	sim := des.NewSimulator()
	rel := func(string, float64, float64) {}
	if _, err := NewSim(nil, Spec{SigmaBits: 1, RhoBps: 1}, rel); err == nil {
		t.Error("nil simulator should be rejected")
	}
	if _, err := NewSim(sim, Spec{}, rel); err == nil {
		t.Error("invalid spec should be rejected")
	}
	if _, err := NewSim(sim, Spec{SigmaBits: 1, RhoBps: 1}, nil); err == nil {
		t.Error("nil callback should be rejected")
	}
	sh, err := NewSim(sim, Spec{SigmaBits: 1e4, RhoBps: 1e6}, rel)
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Submit("a", 0, 0); err == nil {
		t.Error("empty frame should be rejected")
	}
	if err := sh.Submit("a", 2e4, 0); err == nil {
		t.Error("frame larger than the bucket should be rejected")
	}
}
