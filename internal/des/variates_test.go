package des

import (
	"math"
	"testing"
)

// sampleMean draws n variates and returns their mean.
func sampleMean(n int, draw func() float64) float64 {
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += draw()
	}
	return sum / float64(n)
}

func TestGammaMoments(t *testing.T) {
	const n = 20000
	for _, tc := range []struct{ shape, scale float64 }{
		{0.5, 2.0}, {1.0, 1.5}, {4.0, 0.25}, {9.0, 3.0},
	} {
		g := NewRNG(7)
		mean := sampleMean(n, func() float64 { return g.Gamma(tc.shape, tc.scale) })
		want := tc.shape * tc.scale
		if math.Abs(mean-want) > 0.05*want {
			t.Errorf("Gamma(%v,%v) mean = %v, want ≈ %v", tc.shape, tc.scale, mean, want)
		}
	}
}

func TestWeibullMoments(t *testing.T) {
	const n = 20000
	for _, tc := range []struct{ shape, scale float64 }{
		{0.7, 1.0}, {1.0, 2.0}, {2.5, 0.5},
	} {
		g := NewRNG(11)
		mean := sampleMean(n, func() float64 { return g.Weibull(tc.shape, tc.scale) })
		want := tc.scale * math.Gamma(1+1/tc.shape)
		if math.Abs(mean-want) > 0.05*want {
			t.Errorf("Weibull(%v,%v) mean = %v, want ≈ %v", tc.shape, tc.scale, mean, want)
		}
	}
}

func TestParetoMomentsAndSupport(t *testing.T) {
	const n = 50000
	g := NewRNG(13)
	alpha, xm := 2.5, 1.0
	min := math.Inf(1)
	mean := sampleMean(n, func() float64 {
		v := g.Pareto(alpha, xm)
		if v < min {
			min = v
		}
		return v
	})
	if min < xm {
		t.Errorf("Pareto produced %v below xm=%v", min, xm)
	}
	want := alpha * xm / (alpha - 1)
	if math.Abs(mean-want) > 0.1*want {
		t.Errorf("Pareto(%v,%v) mean = %v, want ≈ %v", alpha, xm, mean, want)
	}
}

func TestLognormalMoments(t *testing.T) {
	const n = 30000
	g := NewRNG(17)
	mu, sigma := 0.5, 0.8
	mean := sampleMean(n, func() float64 { return g.Lognormal(mu, sigma) })
	want := math.Exp(mu + sigma*sigma/2)
	if math.Abs(mean-want) > 0.07*want {
		t.Errorf("Lognormal(%v,%v) mean = %v, want ≈ %v", mu, sigma, mean, want)
	}
}

func TestVariatesDeterministic(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	for i := 0; i < 100; i++ {
		if x, y := a.Gamma(0.7, 2), b.Gamma(0.7, 2); x != y {
			t.Fatalf("draw %d: gamma diverged: %v vs %v", i, x, y)
		}
		if x, y := a.Pareto(1.5, 3), b.Pareto(1.5, 3); x != y {
			t.Fatalf("draw %d: pareto diverged: %v vs %v", i, x, y)
		}
	}
}

func TestVariatesRejectBadParameters(t *testing.T) {
	g := NewRNG(1)
	for name, f := range map[string]func(){
		"gamma":     func() { g.Gamma(0, 1) },
		"weibull":   func() { g.Weibull(-1, 1) },
		"pareto":    func() { g.Pareto(1, 0) },
		"lognormal": func() { g.Lognormal(0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted invalid parameters", name)
				}
			}()
			f()
		}()
	}
}

func TestRenewalProcessRates(t *testing.T) {
	rng := NewRNG(23)
	gp, err := NewGammaProcess(rng, 50, 4)
	if err != nil {
		t.Fatal(err)
	}
	mean := sampleMean(20000, gp.Next)
	if want := 1.0 / 50; math.Abs(mean-want) > 0.05*want {
		t.Errorf("Gamma process mean gap = %v, want ≈ %v", mean, want)
	}

	wp, err := NewWeibullProcess(rng, 20, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	mean = sampleMean(20000, wp.Next)
	if want := 1.0 / 20; math.Abs(mean-want) > 0.05*want {
		t.Errorf("Weibull process mean gap = %v, want ≈ %v", mean, want)
	}

	if _, err := NewGammaProcess(nil, 1, 1); err == nil {
		t.Error("nil RNG accepted")
	}
	if _, err := NewWeibullProcess(rng, 0, 1); err == nil {
		t.Error("zero rate accepted")
	}
}
