package des

import (
	"errors"
	"fmt"
	"math"
)

// This file extends the RNG with the heavy-tailed and shape-controlled
// variates the workload layer needs (Gamma/Weibull interarrivals,
// Pareto/lognormal lifetimes), plus renewal arrival processes mirroring
// PoissonProcess. All draws are deterministic functions of the seed and the
// call sequence, which is what makes workload generation reproducible.

// gammaSqueeze is the fast-acceptance coefficient of the Marsaglia–Tsang
// squeeze step (their constant 0.0331).
const gammaSqueeze = 0.0331

// Gamma returns a Gamma(shape, scale) variate (mean shape·scale) using the
// Marsaglia–Tsang method, with the standard power boost for shape < 1.
// Both parameters must be positive.
func (g *RNG) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic(fmt.Sprintf("des: gamma parameters (shape=%v, scale=%v) must be positive", shape, scale))
	}
	if shape < 1 {
		// Boost: X ~ Gamma(shape+1), U^(1/shape) thins it down to shape.
		u := g.r.Float64()
		for u == 0 {
			u = g.r.Float64()
		}
		return g.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := g.r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := g.r.Float64()
		if u < 1-gammaSqueeze*x*x*x*x {
			return d * v * scale
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// Weibull returns a Weibull(shape, scale) variate via inversion:
// scale·(−ln U)^(1/shape). Mean is scale·Γ(1+1/shape). Both parameters must
// be positive.
func (g *RNG) Weibull(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic(fmt.Sprintf("des: weibull parameters (shape=%v, scale=%v) must be positive", shape, scale))
	}
	u := g.r.Float64()
	for u == 0 {
		u = g.r.Float64()
	}
	return scale * math.Pow(-math.Log(u), 1/shape)
}

// Pareto returns a (type I) Pareto variate with tail index alpha and minimum
// xm: xm·U^(−1/alpha). The mean alpha·xm/(alpha−1) is finite only for
// alpha > 1. Both parameters must be positive.
func (g *RNG) Pareto(alpha, xm float64) float64 {
	if alpha <= 0 || xm <= 0 {
		panic(fmt.Sprintf("des: pareto parameters (alpha=%v, xm=%v) must be positive", alpha, xm))
	}
	u := g.r.Float64()
	for u == 0 {
		u = g.r.Float64()
	}
	return xm * math.Pow(u, -1/alpha)
}

// Lognormal returns exp(mu + sigma·N) with N standard normal. Its mean is
// exp(mu + sigma²/2). sigma must be positive.
func (g *RNG) Lognormal(mu, sigma float64) float64 {
	if sigma <= 0 {
		panic(fmt.Sprintf("des: lognormal sigma %v must be positive", sigma))
	}
	return math.Exp(mu + sigma*g.r.NormFloat64())
}

// GammaProcess generates interarrival times drawn i.i.d. from a
// Gamma(shape, scale) renewal process of mean rate lambda. shape controls
// burstiness: shape = 1 degenerates to Poisson, shape > 1 is smoother than
// Poisson (CV < 1), shape < 1 is burstier (CV > 1).
type GammaProcess struct {
	rng   *RNG
	shape float64
	scale float64
}

// positiveFinite reports whether a derived mean gap or scale is one a
// process can draw from: rate and shape are each positive, yet their product
// or Γ(1+1/shape) can still under- or overflow.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 0) }

// NewGammaProcess returns a Gamma renewal process with mean rate lambda
// arrivals per second and the given shape; both must be positive. The scale
// is derived so the mean interarrival is exactly 1/lambda.
func NewGammaProcess(rng *RNG, lambda, shape float64) (*GammaProcess, error) {
	if rng == nil {
		return nil, errors.New("des: Gamma process requires an RNG")
	}
	if lambda <= 0 || shape <= 0 {
		return nil, fmt.Errorf("des: Gamma process parameters (lambda=%v, shape=%v) must be positive", lambda, shape)
	}
	scale := 1 / (lambda * shape)
	if !positiveFinite(scale) {
		return nil, fmt.Errorf("des: Gamma process parameters (lambda=%v, shape=%v) leave no usable scale (%v)", lambda, shape, scale)
	}
	return &GammaProcess{rng: rng, shape: shape, scale: scale}, nil
}

// Next returns the time to the next arrival.
func (p *GammaProcess) Next() float64 { return p.rng.Gamma(p.shape, p.scale) }

// WeibullProcess generates interarrival times drawn i.i.d. from a
// Weibull(shape, scale) renewal process of mean rate lambda. shape < 1
// yields heavy-tailed gaps (bursts separated by long silences), shape > 1
// near-periodic arrivals.
type WeibullProcess struct {
	rng   *RNG
	shape float64
	scale float64
}

// NewWeibullProcess returns a Weibull renewal process with mean rate lambda
// arrivals per second and the given shape; both must be positive. The scale
// is derived through Γ(1+1/shape) so the mean interarrival is exactly
// 1/lambda.
func NewWeibullProcess(rng *RNG, lambda, shape float64) (*WeibullProcess, error) {
	if rng == nil {
		return nil, errors.New("des: Weibull process requires an RNG")
	}
	if lambda <= 0 || shape <= 0 {
		return nil, fmt.Errorf("des: Weibull process parameters (lambda=%v, shape=%v) must be positive", lambda, shape)
	}
	scale := 1 / (lambda * math.Gamma(1+1/shape))
	if !positiveFinite(scale) {
		return nil, fmt.Errorf("des: Weibull process parameters (lambda=%v, shape=%v) leave no usable scale (%v)", lambda, shape, scale)
	}
	return &WeibullProcess{rng: rng, shape: shape, scale: scale}, nil
}

// Next returns the time to the next arrival.
func (p *WeibullProcess) Next() float64 { return p.rng.Weibull(p.shape, p.scale) }
