// Package units defines the unit conventions shared by every analysis and
// simulation package in this repository, together with the numeric helpers
// used when comparing physical quantities.
//
// Conventions:
//
//   - Time is expressed in seconds as float64.
//   - Data volumes are expressed in payload bits as float64.
//   - Rates are expressed in bits per second as float64.
//
// ATM cell overhead (5 header bytes out of 53) is accounted by working with
// payload-effective link capacities rather than by tracking header bits,
// which keeps every traffic envelope in the same unit.
package units

import "math"

// Common rate constants, in bits per second.
const (
	Kbps = 1e3
	Mbps = 1e6
	Gbps = 1e9
)

// Common time constants, in seconds.
const (
	Microsecond = 1e-6
	Millisecond = 1e-3
)

// Eps is the default absolute tolerance used when comparing times (seconds).
// It is far below every physical time constant in the system (the shortest
// being a cell transmission time of ~2.7 µs) while far above float64 noise
// accumulated by the analysis.
const Eps = 1e-12

// RelTol is the default relative tolerance used when comparing delays and
// rates produced by independent computations.
const RelTol = 1e-9

// AlmostLE reports whether a <= b up to the default tolerance, using a mixed
// absolute/relative criterion so that it behaves sensibly both near zero and
// for large magnitudes.
func AlmostLE(a, b float64) bool {
	if a <= b {
		return true
	}
	scale := max(math.Abs(a), math.Abs(b))
	return a-b <= Eps+RelTol*scale
}

// AlmostGE reports whether a >= b up to the default tolerance.
func AlmostGE(a, b float64) bool { return AlmostLE(b, a) }

// AlmostEq reports whether a and b are equal up to the default tolerance.
func AlmostEq(a, b float64) bool { return AlmostLE(a, b) && AlmostLE(b, a) }

// WithinRel reports whether a and b agree up to relative tolerance tol
// (with an absolute floor of Eps for values near zero).
func WithinRel(a, b, tol float64) bool {
	diff := math.Abs(a - b)
	if diff <= Eps {
		return true
	}
	scale := max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}

// RelBand returns a bound above which nothing agrees with b under WithinRel
// at tolerance tol: for every a > RelBand(b, tol), WithinRel(a, b, tol) is
// false. It is max(b + Eps, b/(1 − tol)), the two ways WithinRel can accept
// an a above b, padded by RelTol, which covers the rounding of both its
// tests and of the bound for tol up to 1/2. For a larger tol, or b negative
// or not finite, it is +Inf.
func RelBand(b, tol float64) float64 {
	if !(b >= 0) || math.IsInf(b, 1) || !(tol >= 0 && tol <= 0.5) {
		return math.Inf(1)
	}
	return max(b+Eps, b/(1-tol)) * (1 + RelTol)
}

// CeilDiv returns ceil(a/b) for positive float quantities, robust to the
// floating-point case where a is an exact multiple of b up to tolerance. b
// must be positive. The snap applies to the multiples from b on: a positive
// a, however small, is not rounding noise around 0 and takes the first step.
func CeilDiv(a, b float64) float64 {
	if a <= 0 {
		return 0
	}
	q := a / b
	f := math.Floor(q)
	if f >= 1 && q-f <= RelTol*q {
		return f
	}
	return f + 1
}

// FloorDiv returns floor(a/b) for positive float quantities, robust to the
// floating-point case where a is infinitesimally below an exact multiple of
// b. b must be positive.
func FloorDiv(a, b float64) float64 {
	if a <= 0 {
		return 0
	}
	q := a / b
	c := math.Ceil(q)
	if c-q <= RelTol*max(1, q) {
		return c
	}
	// q is non-integral here (an integral q takes the branch above), so its
	// floor is exactly one below its ceil.
	return c - 1
}

// Clamp limits v to the closed interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo
	case v > hi:
		return hi
	default:
		return v
	}
}
