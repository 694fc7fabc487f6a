// Package shaper implements ingress traffic regulation at the interface
// device, following the authors' companion work on traffic regulation in
// ATM LANs (Raha, Kamat, Zhao; ICNP 1995): a (σ, ρ) regulator placed before
// the ATM output port delays non-conformant traffic so that what enters the
// backbone is leaky-bucket bounded. Shaping trades a bounded local delay for
// much tighter envelopes downstream — every shared port after the shaper
// sees σ + ρ·I instead of the MAC's bursty output — which can lower the
// end-to-end worst case when backbone contention dominates.
package shaper

import (
	"errors"
	"fmt"

	"fafnet/internal/des"
	"fafnet/internal/traffic"
	"fafnet/internal/units"
)

// Spec parameterizes one connection's regulator.
type Spec struct {
	// SigmaBits is the bucket depth σ.
	SigmaBits float64
	// RhoBps is the token rate ρ; it must exceed the connection's long-term
	// rate or the regulator backlog grows without bound.
	RhoBps float64
}

// Validate reports whether the parameters are usable.
func (s Spec) Validate() error {
	if s.SigmaBits <= 0 {
		return fmt.Errorf("shaper: sigma %v must be positive", s.SigmaBits)
	}
	if s.RhoBps <= 0 {
		return fmt.Errorf("shaper: rho %v must be positive", s.RhoBps)
	}
	return nil
}

// Result is the outcome of the regulator analysis.
type Result struct {
	// Delay is the worst-case time a bit waits in the regulator.
	Delay float64
	// Output is the envelope of the shaped traffic: conformant to the
	// bucket AND no more than the (delayed) input could supply.
	Output traffic.Descriptor
}

// ErrUnstable indicates the token rate cannot sustain the input.
var ErrUnstable = errors.New("shaper: token rate below the input's long-term rate")

// The busy-period search.
const (
	// initialHorizon seeds the doubling busy-period search (seconds), as at
	// the ATM mux.
	initialHorizon = 16e-3
	// maxHorizon bounds the busy-period search (seconds).
	maxHorizon = 4
)

// Analyze bounds a (σ, ρ) regulator fed by in: the worst-case shaping delay
// is the largest time by which the bucket constraint lags the arrivals,
//
//	d = max_t ( A(t) − σ )/ρ − t   over the regulator's busy period,
//
// and the output conforms to the bucket while never exceeding what the
// delayed input supplies.
//
// The busy period is the bucket's: it starts full, and it is full again once
// the tokens accrued since, ρ·t, cover every arrival, at the latest at the
// first t > 0 with A(t) <= ρ·t. Every bit waits at most (A(t) − σ)/ρ − t for
// its offset t into such a period, so d is the excess of A over the line ρ·t
// on that period (traffic.Backlog), less σ, over ρ.
func Analyze(in traffic.Descriptor, spec Spec) (Result, error) {
	if in == nil {
		return Result{}, errors.New("shaper: Analyze requires an input descriptor")
	}
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	if in.LongTermRate() >= spec.RhoBps*(1-units.RelTol) {
		return Result{}, fmt.Errorf("%w: rho=%v bps, input=%v bps", ErrUnstable, spec.RhoBps, in.LongTermRate())
	}
	_, excess, ok := traffic.Backlog(in, spec.RhoBps, initialHorizon, 2*maxHorizon)
	if !ok {
		return Result{}, fmt.Errorf("%w: the bucket does not refill within %v s", ErrUnstable, maxHorizon)
	}
	delay := max(0, (excess-spec.SigmaBits)/spec.RhoBps)

	bucket, err := traffic.NewLeakyBucket(spec.SigmaBits, spec.RhoBps, 0)
	if err != nil {
		return Result{}, fmt.Errorf("shaper: building bucket envelope: %w", err)
	}
	delayed, err := traffic.NewDelayed(in, delay, 0)
	if err != nil {
		return Result{}, fmt.Errorf("shaper: building delayed envelope: %w", err)
	}
	out, err := traffic.NewMin(bucket, delayed)
	if err != nil {
		return Result{}, fmt.Errorf("shaper: combining envelopes: %w", err)
	}
	return Result{Delay: delay, Output: out}, nil
}

// Sim is the DES counterpart: a token-bucket regulator releasing frames in
// FIFO order as tokens accrue. It tracks virtual bucket state exactly, so
// conformant traffic passes untouched.
type Sim struct {
	sim     *des.Simulator
	spec    Spec
	release func(id string, bits, origin float64)

	tokens     float64
	lastUpdate float64
	// nextFree is the earliest time the next queued frame may be released
	// (FIFO: releases are serialized).
	nextFree float64
}

// NewSim builds a regulator; release receives each frame when it conforms.
func NewSim(simulator *des.Simulator, spec Spec, release func(id string, bits, origin float64)) (*Sim, error) {
	if simulator == nil {
		return nil, errors.New("shaper: Sim requires a simulator")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if release == nil {
		return nil, errors.New("shaper: Sim requires a release callback")
	}
	return &Sim{sim: simulator, spec: spec, release: release, tokens: spec.SigmaBits}, nil
}

// Submit accepts one frame; it is released as soon as the bucket holds
// enough tokens (immediately when conformant).
func (s *Sim) Submit(id string, bits, origin float64) error {
	if bits <= 0 {
		return fmt.Errorf("shaper: frame size %v must be positive", bits)
	}
	if bits > s.spec.SigmaBits {
		return fmt.Errorf("shaper: frame of %v bits can never conform to a %v-bit bucket", bits, s.spec.SigmaBits)
	}
	now := s.sim.Now()
	// Advance bucket state to the release front.
	at := now
	if s.nextFree > at {
		at = s.nextFree
	}
	tokensAt := s.tokens + (at-s.lastUpdate)*s.spec.RhoBps
	if tokensAt > s.spec.SigmaBits {
		tokensAt = s.spec.SigmaBits
	}
	if tokensAt < bits {
		at += (bits - tokensAt) / s.spec.RhoBps
		tokensAt = bits
	}
	// Commit the new bucket state after this release.
	s.tokens = tokensAt - bits
	s.lastUpdate = at
	s.nextFree = at
	if _, err := s.sim.Schedule(at, func() { s.release(id, bits, origin) }); err != nil {
		return fmt.Errorf("shaper: scheduling release: %w", err)
	}
	return nil
}
