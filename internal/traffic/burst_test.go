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

// TestRateFloorRules holds every rule of RateFloor to its envelope: on a
// dense sweep of t, Bits(t) stays at or above ρ·t (to the float padding the
// floor's users apply), and for the source models ρ is the long-term rate,
// so the floor is the envelope's own slope and not a loose cover of it. The
// rate-equal dual-periodic source, whose budget binds where a long period
// ends, is lowered too: its flat once dropped a long period's first ramp
// where a plateau rounded past the period's start. Types without a rule and
// source literals that break their constructor's premise — each of which
// the sweep shows falling below its long-term rate — have no floor.
func TestRateFloorRules(t *testing.T) {
	periodic := Periodic{C: 1e5, P: 0.010, PeakBps: 100e6}
	paper := DualPeriodic{C1: 150e3, P1: 0.010, C2: 30e3, P2: 0.001, PeakBps: 100e6}
	rateEqual := DualPeriodic{C1: 1000, P1: 0.0013304787315693753, C2: 31.622776601683793, P2: 4.207343170170997e-05, PeakBps: 751609.1586225082}
	bucket := LeakyBucket{Sigma: 4e4, Rho: 2e6, PeakBps: 50e6}
	delayed := Delayed{Inner: paper, Delay: 0.003, CapBps: 155e6}
	quantized := Quantized{Inner: delayed, QuantumBits: 4000, OutBits: 4240}
	minimum, err := NewMin(LeakyBucket{Sigma: 5e4, Rho: 20e6}, delayed)
	if err != nil {
		t.Fatal(err)
	}
	flat := Flatten(Fuse(quantized), 0.025)
	view, err := NewView(flat, 0.002, 12e6, 0.025)
	if err != nil {
		t.Fatal(err)
	}
	sweep := func(d Descriptor) (worst float64) {
		worst = math.Inf(1)
		for i := 1; i <= 200000; i++ {
			tt := float64(i) * 1e-6
			worst = min(worst, d.Bits(tt)/tt)
		}
		return worst
	}
	cases := []struct {
		name string
		d    Descriptor
		want float64
	}{
		{"CBR", CBR{RateBps: 3e6}, 3e6},
		{"Periodic", periodic, periodic.LongTermRate()},
		{"DualPeriodic", paper, paper.LongTermRate()},
		{"DualPeriodic/rate-equal", rateEqual, rateEqual.LongTermRate()},
		{"LeakyBucket", bucket, 2e6},
		{"LeakyBucket/uncapped", LeakyBucket{Sigma: 4e4, Rho: 2e6}, 2e6},
		{"Delayed", delayed, paper.LongTermRate()},
		{"Delayed/cap below rate", Delayed{Inner: paper, Delay: 0.003, CapBps: 10e6}, 10e6},
		{"RateCapped", RateCapped{Inner: paper, CapBps: 100e6}, paper.LongTermRate()},
		{"RateCapped/cap below rate", RateCapped{Inner: paper, CapBps: 10e6}, 10e6},
		{"Quantized", quantized, paper.LongTermRate() * 4240 / 4000},
		{"Aggregate", NewAggregate(paper, periodic, bucket), paper.LongTermRate() + periodic.LongTermRate() + 2e6},
		{"Min", minimum, paper.LongTermRate()},
		{"Flat", flat, quantized.LongTermRate()},
		{"Flat/rate-equal", Flatten(rateEqual, 0.025), rateEqual.LongTermRate()},
		{"View", view, 12e6},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rho, ok := RateFloor(c.d)
			if !ok || rho != c.want {
				t.Fatalf("RateFloor = %v, %v; want %v", rho, ok, c.want)
			}
			if rho > c.d.LongTermRate() {
				t.Errorf("the floor %v is above the long-term rate %v", rho, c.d.LongTermRate())
			}
			if worst := sweep(c.d); worst < rho*(1-1e-9) {
				t.Errorf("Bits(t)/t falls to %v, below the floor %v", worst, rho)
			}
		})
	}
	refused := []struct {
		name string
		d    Descriptor
		dips bool // the sweep finds Bits(t) below its long-term rate line
	}{
		{"outside type", opaque{paper}, false},
		{"Aggregate/member without a rule", NewAggregate(paper, opaque{paper}), false},
		{"Min/member without a rule", Min{members: []Descriptor{paper, opaque{paper}}}, false},
		{"CBR/negative", CBR{RateBps: -1}, false},
		{"LeakyBucket/peak below rate", LeakyBucket{Sigma: 0, Rho: 2e6, PeakBps: 1e6}, true},
		{"Periodic/peak cannot carry C", Periodic{C: 1e5, P: 0.010, PeakBps: 1e6}, true},
		{"DualPeriodic/short-term rate below long-term", DualPeriodic{C1: 150e3, P1: 0.010, C2: 1e3, P2: 0.001, PeakBps: 100e6}, true},
		{"DualPeriodic/peak cannot carry C2", DualPeriodic{C1: 150e3, P1: 0.010, C2: 30e3, P2: 0.001, PeakBps: 1e6}, true},
		{"DualPeriodic/NaN", DualPeriodic{C1: math.NaN(), P1: 0.010, C2: 30e3, P2: 0.001, PeakBps: 100e6}, false},
		{"Delayed/negative delay", Delayed{Inner: paper, Delay: -0.003}, true},
		{"Quantized/no quantum", Quantized{Inner: paper, OutBits: 424}, false},
		{"Quantized/inner refused", Quantized{Inner: Periodic{C: 1e5, P: 0.010, PeakBps: 1e6}, QuantumBits: 384, OutBits: 424}, true},
	}
	for _, c := range refused {
		t.Run("refuses/"+c.name, func(t *testing.T) {
			if rho, ok := RateFloor(c.d); ok {
				t.Fatalf("RateFloor = %v, want no floor", rho)
			}
			if c.dips {
				if worst := sweep(c.d); !(worst < c.d.LongTermRate()*(1-1e-3)) {
					t.Errorf("Bits(t)/t stays at or above %v: the long-term rate %v is a floor the rule refuses", worst, c.d.LongTermRate())
				}
			}
		})
	}
}
