package traffic

import (
	"errors"
	"fmt"
	"math"

	"fafnet/internal/units"
)

// errNonPositive is wrapped by the constructors when a parameter that must be
// strictly positive is not.
var errNonPositive = errors.New("parameter must be positive")

// CBR is a constant-bit-rate source: exactly RateBps bits per second in every
// interval. The zero value is a silent source.
type CBR struct {
	// RateBps is the constant rate in bits per second.
	RateBps float64
}

var _ Descriptor = CBR{}

// NewCBR returns a CBR descriptor with the given rate in bits per second.
func NewCBR(rateBps float64) (CBR, error) {
	if rateBps < 0 {
		return CBR{}, fmt.Errorf("traffic: CBR rate %v: must be non-negative", rateBps)
	}
	return CBR{RateBps: rateBps}, nil
}

// Bits implements Descriptor.
func (c CBR) Bits(interval float64) float64 {
	if interval <= 0 {
		return 0
	}
	return c.RateBps * interval
}

// LongTermRate implements Descriptor.
func (c CBR) LongTermRate() float64 { return c.RateBps }

// String implements fmt.Stringer.
func (c CBR) String() string { return fmt.Sprintf("CBR(%.3g bps)", c.RateBps) }

// Periodic is the one-period source model: at most C bits in any interval of
// length P, arriving at no more than PeakBps while active. Its envelope is
//
//	A(I) = ⌊I/P⌋·C + min(C, (I mod P)·Peak)
//
// which is the standard worst-case alignment bound for periodic traffic.
type Periodic struct {
	C       float64 // bits per period
	P       float64 // period length in seconds
	PeakBps float64 // instantaneous rate while transmitting, bits/second
}

var _ Descriptor = Periodic{}

// NewPeriodic validates and returns a periodic descriptor. The peak rate must
// be high enough to deliver C bits within one period (Peak·P >= C).
func NewPeriodic(c, p, peakBps float64) (Periodic, error) {
	switch {
	case c <= 0:
		return Periodic{}, fmt.Errorf("traffic: periodic C=%v: %w", c, errNonPositive)
	case p <= 0:
		return Periodic{}, fmt.Errorf("traffic: periodic P=%v: %w", p, errNonPositive)
	case peakBps <= 0:
		return Periodic{}, fmt.Errorf("traffic: periodic peak=%v: %w", peakBps, errNonPositive)
	case peakBps*p < c*(1-units.RelTol):
		return Periodic{}, fmt.Errorf("traffic: periodic peak %v bps cannot carry %v bits in period %v s", peakBps, c, p)
	}
	return Periodic{C: c, P: p, PeakBps: peakBps}, nil
}

// Bits implements Descriptor.
func (s Periodic) Bits(interval float64) float64 {
	if interval <= 0 {
		return 0
	}
	k := units.FloorDiv(interval, s.P)
	r := interval - k*s.P
	if r < 0 {
		r = 0
	}
	return k*s.C + min(s.C, r*s.PeakBps)
}

// LongTermRate implements Descriptor.
func (s Periodic) LongTermRate() float64 { return s.C / s.P }

// String implements fmt.Stringer.
func (s Periodic) String() string {
	return fmt.Sprintf("Periodic(C=%.3g b, P=%.3g s, peak=%.3g bps)", s.C, s.P, s.PeakBps)
}

// DualPeriodic is the paper's dual-periodic source model (Eq. 37): at most C1
// bits in any interval of length P1 and at most C2 bits in any interval of
// length P2 (P2 <= P1), arriving at no more than PeakBps while transmitting.
// It generalizes the one-period model by allowing short-term burstiness at
// rate C2/P2 above the long-term rate C1/P1.
type DualPeriodic struct {
	C1      float64 // bits per long period
	P1      float64 // long period, seconds
	C2      float64 // bits per short period
	P2      float64 // short period, seconds
	PeakBps float64 // instantaneous transmission rate, bits/second
}

var _ Descriptor = DualPeriodic{}

// NewDualPeriodic validates and returns a dual-periodic descriptor.
// Requirements: 0 < P2 <= P1, 0 < C2 <= C1, the short-term rate C2/P2 at
// least the long-term rate C1/P1, and a peak able to deliver C2 within P2.
func NewDualPeriodic(c1, p1, c2, p2, peakBps float64) (DualPeriodic, error) {
	switch {
	case c1 <= 0:
		return DualPeriodic{}, fmt.Errorf("traffic: dual-periodic C1=%v: %w", c1, errNonPositive)
	case p1 <= 0:
		return DualPeriodic{}, fmt.Errorf("traffic: dual-periodic P1=%v: %w", p1, errNonPositive)
	case c2 <= 0:
		return DualPeriodic{}, fmt.Errorf("traffic: dual-periodic C2=%v: %w", c2, errNonPositive)
	case p2 <= 0:
		return DualPeriodic{}, fmt.Errorf("traffic: dual-periodic P2=%v: %w", p2, errNonPositive)
	case peakBps <= 0:
		return DualPeriodic{}, fmt.Errorf("traffic: dual-periodic peak=%v: %w", peakBps, errNonPositive)
	case p2 > p1*(1+units.RelTol):
		return DualPeriodic{}, fmt.Errorf("traffic: dual-periodic P2=%v exceeds P1=%v", p2, p1)
	case c2 > c1*(1+units.RelTol):
		return DualPeriodic{}, fmt.Errorf("traffic: dual-periodic C2=%v exceeds C1=%v", c2, c1)
	case c2/p2 < (c1/p1)*(1-units.RelTol):
		return DualPeriodic{}, fmt.Errorf("traffic: dual-periodic short-term rate %v bps below long-term rate %v bps", c2/p2, c1/p1)
	case peakBps*p2 < c2*(1-units.RelTol):
		return DualPeriodic{}, fmt.Errorf("traffic: dual-periodic peak %v bps cannot carry %v bits in sub-period %v s", peakBps, c2, p2)
	}
	return DualPeriodic{C1: c1, P1: p1, C2: c2, P2: p2, PeakBps: peakBps}, nil
}

// Bits implements Descriptor following Eq. 37 of the paper, with the
// instantaneous transmission rate made explicit (the paper normalizes it
// to the medium rate):
//
//	A(I) = ⌊I/P1⌋·C1 + min(C1, ⌊r/P2⌋·C2 + min(C2, (r mod P2)·Peak)),
//	r = I mod P1.
func (s DualPeriodic) Bits(interval float64) float64 {
	if interval <= 0 {
		return 0
	}
	k1 := units.FloorDiv(interval, s.P1)
	r := interval - k1*s.P1
	if r < 0 {
		r = 0
	}
	k2 := units.FloorDiv(r, s.P2)
	r2 := r - k2*s.P2
	if r2 < 0 {
		r2 = 0
	}
	inner := k2*s.C2 + min(s.C2, r2*s.PeakBps)
	return k1*s.C1 + min(s.C1, inner)
}

// LongTermRate implements Descriptor: ρ = C1/P1 (Eq. 38).
func (s DualPeriodic) LongTermRate() float64 { return s.C1 / s.P1 }

// String implements fmt.Stringer.
func (s DualPeriodic) String() string {
	return fmt.Sprintf("DualPeriodic(C1=%.3g b/P1=%.3g s, C2=%.3g b/P2=%.3g s, peak=%.3g bps)",
		s.C1, s.P1, s.C2, s.P2, s.PeakBps)
}

// LeakyBucket is the (σ, ρ) regulator envelope with a peak-rate cap:
// A(I) = min(Peak·I, σ + ρ·I). It is provided for interoperability with
// ATM-style usage parameter control and as a simple bound for composed
// traffic.
type LeakyBucket struct {
	Sigma   float64 // bucket depth, bits
	Rho     float64 // token rate, bits/second
	PeakBps float64 // peak rate, bits/second (0 means uncapped)
}

var _ Descriptor = LeakyBucket{}

// NewLeakyBucket validates and returns a leaky-bucket descriptor. peakBps of
// zero means "no peak cap" (instantaneous bursts allowed).
func NewLeakyBucket(sigma, rho, peakBps float64) (LeakyBucket, error) {
	switch {
	case sigma < 0:
		return LeakyBucket{}, fmt.Errorf("traffic: leaky bucket sigma=%v: must be non-negative", sigma)
	case rho <= 0:
		return LeakyBucket{}, fmt.Errorf("traffic: leaky bucket rho=%v: %w", rho, errNonPositive)
	case peakBps < 0:
		return LeakyBucket{}, fmt.Errorf("traffic: leaky bucket peak=%v: must be non-negative", peakBps)
	case peakBps > 0 && peakBps < rho*(1-units.RelTol):
		return LeakyBucket{}, fmt.Errorf("traffic: leaky bucket peak %v bps below sustained rate %v bps", peakBps, rho)
	}
	return LeakyBucket{Sigma: sigma, Rho: rho, PeakBps: peakBps}, nil
}

// Bits implements Descriptor.
func (b LeakyBucket) Bits(interval float64) float64 {
	if interval <= 0 {
		return 0
	}
	a := b.Sigma + b.Rho*interval
	if b.PeakBps > 0 {
		a = math.Min(a, b.PeakBps*interval)
	}
	return a
}

// LongTermRate implements Descriptor.
func (b LeakyBucket) LongTermRate() float64 { return b.Rho }

// String implements fmt.Stringer.
func (b LeakyBucket) String() string {
	return fmt.Sprintf("LeakyBucket(σ=%.3g b, ρ=%.3g bps, peak=%.3g bps)", b.Sigma, b.Rho, b.PeakBps)
}
