package traffic

import (
	"math"
	"testing"
)

// TestBurstBoundRules holds every rule of BurstBound to its envelope: on a
// dense sweep of t, Bits(t) stays under σ + ρ·t (to the float padding the
// bound's users apply), and for the source models the sweep comes within a
// part in a thousand of σ, so the rule is the envelope's excess and not a
// loose cover of it. Types without a rule bound nothing.
func TestBurstBoundRules(t *testing.T) {
	periodic := Periodic{C: 1e5, P: 0.010, PeakBps: 100e6}
	paper := DualPeriodic{C1: 150e3, P1: 0.010, C2: 30e3, P2: 0.001, PeakBps: 100e6}
	unreached := DualPeriodic{C1: 150e3, P1: 0.010, C2: 10e3, P2: 0.002, PeakBps: 100e6}
	bucket := LeakyBucket{Sigma: 4e4, Rho: 2e6, PeakBps: 50e6}
	delayed := Delayed{Inner: paper, Delay: 0.003, CapBps: 155e6}
	quantized := Quantized{Inner: delayed, QuantumBits: 4000, OutBits: 4240}
	minimum, err := NewMin(LeakyBucket{Sigma: 5e4, Rho: 20e6}, delayed)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		d     Descriptor
		tight bool
	}{
		{"CBR", CBR{RateBps: 3e6}, true},
		{"Periodic", periodic, true},
		{"DualPeriodic", paper, true},
		{"DualPeriodic/budget unreached", unreached, true},
		{"LeakyBucket", bucket, true},
		{"Delayed", delayed, true},
		{"Delayed/cap below rate", Delayed{Inner: paper, Delay: 0.003, CapBps: 10e6}, false},
		{"RateCapped", RateCapped{Inner: paper, CapBps: 100e6}, true},
		{"RateCapped/cap below rate", RateCapped{Inner: paper, CapBps: 10e6}, false},
		{"Quantized", quantized, false},
		{"Aggregate", NewAggregate(paper, periodic, bucket), false},
		{"Min", minimum, false},
		{"Flat", Flatten(Fuse(quantized), 0.025), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sigma, rho := BurstBound(c.d), c.d.LongTermRate()
			if math.IsInf(sigma, 0) || sigma < 0 {
				t.Fatalf("sigma = %v", sigma)
			}
			worst := math.Inf(-1)
			for i := 1; i <= 200000; i++ {
				tt := float64(i) * 1e-6
				a := c.d.Bits(tt)
				if a > (sigma+rho*tt)*(1+1e-9) {
					t.Fatalf("Bits(%v) = %v above %v + %v·t", tt, a, sigma, rho)
				}
				worst = max(worst, a-rho*tt)
			}
			if c.tight && worst < sigma*(1-1e-3) {
				t.Errorf("the sweep's largest excess is %v, the rule's sigma %v", worst, sigma)
			}
		})
	}
	if s := BurstBound(opaque{paper}); !math.IsInf(s, 1) {
		t.Errorf("a type from outside the package: sigma = %v, want +Inf (no rule)", s)
	}
	if s := BurstBound(NewAggregate(paper, opaque{paper})); !math.IsInf(s, 1) {
		t.Errorf("an aggregate with a member without a rule: sigma = %v, want +Inf", s)
	}
}
