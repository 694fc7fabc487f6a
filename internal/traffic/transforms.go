package traffic

import (
	"fmt"
	"math"

	"fafnet/internal/units"
)

// Aggregate is the superposition of several connections' traffic:
// A(I) = Σ_k A_k(I). Multiplexer analyses use it to bound the combined input
// of every connection sharing an output port. It is also the tail of a summed
// Flat (SumFlats, SumInto, Workspace.Sum), where it serves evaluations beyond
// the sum's window.
type Aggregate struct {
	members []Descriptor
}

var _ Descriptor = Aggregate{}

// NewAggregate returns the aggregate of the given descriptors. The slice is
// copied, so later mutation by the caller does not affect the aggregate.
func NewAggregate(members ...Descriptor) Aggregate {
	cp := make([]Descriptor, len(members))
	copy(cp, members)
	return Aggregate{members: cp}
}

// Bits implements Descriptor.
func (a Aggregate) Bits(interval float64) float64 {
	var sum float64
	for _, m := range a.members {
		sum += m.Bits(interval)
	}
	return sum
}

// LongTermRate implements Descriptor.
func (a Aggregate) LongTermRate() float64 {
	var sum float64
	for _, m := range a.members {
		sum += m.LongTermRate()
	}
	return sum
}

// Len returns the number of member descriptors.
func (a Aggregate) Len() int { return len(a.members) }

// String implements fmt.Stringer.
func (a Aggregate) String() string { return fmt.Sprintf("Aggregate(%d members)", len(a.members)) }

// Delayed is the standard output-envelope transform of a work-conserving
// server with worst-case delay d and output line rate cap:
//
//	A'(I) = min(Cap·I, A(I + d))
//
// Bits that leave during an interval of length I must have arrived during the
// interval extended by the delay bound, and cannot leave faster than the line
// rate. A Cap of 0 means "no line-rate cap".
type Delayed struct {
	Inner  Descriptor
	Delay  float64 // worst-case delay through the server, seconds
	CapBps float64 // output line rate in bits/second; 0 disables the cap
}

var _ Descriptor = Delayed{}

// NewDelayed validates and returns the delayed-output transform of inner.
func NewDelayed(inner Descriptor, delay, capBps float64) (Delayed, error) {
	if inner == nil {
		return Delayed{}, fmt.Errorf("traffic: Delayed requires a non-nil inner descriptor")
	}
	if delay < 0 || math.IsInf(delay, 0) || math.IsNaN(delay) {
		return Delayed{}, fmt.Errorf("traffic: Delayed delay=%v: must be finite and non-negative", delay)
	}
	if capBps < 0 {
		return Delayed{}, fmt.Errorf("traffic: Delayed cap=%v: must be non-negative", capBps)
	}
	return Delayed{Inner: inner, Delay: delay, CapBps: capBps}, nil
}

// Bits implements Descriptor.
func (d Delayed) Bits(interval float64) float64 {
	if interval <= 0 {
		return 0
	}
	a := d.Inner.Bits(interval + d.Delay)
	if d.CapBps > 0 {
		a = min(a, d.CapBps*interval)
	}
	return a
}

// LongTermRate implements Descriptor: a finite-delay server preserves the
// long-term rate (it cannot create or destroy traffic).
func (d Delayed) LongTermRate() float64 {
	r := d.Inner.LongTermRate()
	if d.CapBps > 0 {
		r = math.Min(r, d.CapBps)
	}
	return r
}

// String implements fmt.Stringer.
func (d Delayed) String() string {
	return fmt.Sprintf("Delayed(d=%.3g s, cap=%.3g bps, inner=%v)", d.Delay, d.CapBps, d.Inner)
}

// Quantized models a conversion stage that repackages the stream into units
// of OutBits for every (up to) QuantumBits of input, rounding partially
// filled units up (Theorem 2 of the paper and its reverse):
//
//	A'(I) = ⌈A(I)/Quantum⌉ · Out
//
// Frame→cell conversion uses Quantum = frame payload F_S and
// Out = F_C·C_S (whole-cell payload including padding); cell→frame
// reassembly uses the inverse pairing.
type Quantized struct {
	Inner       Descriptor
	QuantumBits float64
	OutBits     float64
}

var _ Descriptor = Quantized{}

// NewQuantized validates and returns the quantizing transform of inner.
// outBits must be at least quantumBits: a conversion stage may pad but never
// lose payload, which preserves the upper-bound property of the envelope.
func NewQuantized(inner Descriptor, quantumBits, outBits float64) (Quantized, error) {
	if inner == nil {
		return Quantized{}, fmt.Errorf("traffic: Quantized requires a non-nil inner descriptor")
	}
	if quantumBits <= 0 {
		return Quantized{}, fmt.Errorf("traffic: Quantized quantum=%v: %w", quantumBits, errNonPositive)
	}
	if outBits < quantumBits*(1-units.RelTol) {
		return Quantized{}, fmt.Errorf("traffic: Quantized out=%v below quantum=%v: conversion may not lose payload", outBits, quantumBits)
	}
	return Quantized{Inner: inner, QuantumBits: quantumBits, OutBits: outBits}, nil
}

// Bits implements Descriptor.
func (q Quantized) Bits(interval float64) float64 {
	if interval <= 0 {
		return 0
	}
	return units.CeilDiv(q.Inner.Bits(interval), q.QuantumBits) * q.OutBits
}

// LongTermRate implements Descriptor. Rounding adds at most one unit per
// window, which vanishes in the long-term limit, but padding scales the rate
// by Out/Quantum.
func (q Quantized) LongTermRate() float64 {
	// The padding ratio Out/Quantum is a dimensionless scale on the rate.
	return q.Inner.LongTermRate() * (q.OutBits / q.QuantumBits)
}

// String implements fmt.Stringer.
func (q Quantized) String() string {
	return fmt.Sprintf("Quantized(quantum=%.3g b, out=%.3g b, inner=%v)", q.QuantumBits, q.OutBits, q.Inner)
}

// RateCapped clips the envelope to a line rate: A'(I) = min(Cap·I, A(I)).
// Theorem 1 applies it with the FDDI medium rate (Eq. 12).
type RateCapped struct {
	Inner  Descriptor
	CapBps float64
}

var _ Descriptor = RateCapped{}

// NewRateCapped validates and returns the rate-capped view of inner.
func NewRateCapped(inner Descriptor, capBps float64) (RateCapped, error) {
	if inner == nil {
		return RateCapped{}, fmt.Errorf("traffic: RateCapped requires a non-nil inner descriptor")
	}
	if capBps <= 0 {
		return RateCapped{}, fmt.Errorf("traffic: RateCapped cap=%v: %w", capBps, errNonPositive)
	}
	return RateCapped{Inner: inner, CapBps: capBps}, nil
}

// Bits implements Descriptor.
func (r RateCapped) Bits(interval float64) float64 {
	if interval <= 0 {
		return 0
	}
	return min(r.CapBps*interval, r.Inner.Bits(interval))
}

// LongTermRate implements Descriptor.
func (r RateCapped) LongTermRate() float64 {
	return math.Min(r.CapBps, r.Inner.LongTermRate())
}

// String implements fmt.Stringer.
func (r RateCapped) String() string {
	return fmt.Sprintf("RateCapped(%.3g bps, inner=%v)", r.CapBps, r.Inner)
}

// Min is the pointwise minimum of several envelopes: if each member bounds
// the same traffic (e.g. a source declaration and a regulator constraint),
// their minimum is also a valid — and tighter — bound. Flatten lowers it
// exactly: piecewise-linear envelopes are closed under minimum, the only new
// vertices being the points where two members cross.
type Min struct {
	members []Descriptor
}

var _ Descriptor = Min{}

// NewMin returns the pointwise-minimum envelope of the given descriptors,
// which must be non-empty. The slice is copied.
func NewMin(members ...Descriptor) (Min, error) {
	if len(members) == 0 {
		return Min{}, fmt.Errorf("traffic: Min requires at least one member")
	}
	cp := make([]Descriptor, len(members))
	for i, m := range members {
		if m == nil {
			return Min{}, fmt.Errorf("traffic: Min member %d is nil", i)
		}
		cp[i] = m
	}
	return Min{members: cp}, nil
}

// Bits implements Descriptor.
func (m Min) Bits(interval float64) float64 {
	best := m.members[0].Bits(interval)
	for _, d := range m.members[1:] {
		if v := d.Bits(interval); v < best {
			best = v
		}
	}
	return best
}

// LongTermRate implements Descriptor.
func (m Min) LongTermRate() float64 {
	best := m.members[0].LongTermRate()
	for _, d := range m.members[1:] {
		if v := d.LongTermRate(); v < best {
			best = v
		}
	}
	return best
}

// String implements fmt.Stringer.
func (m Min) String() string { return fmt.Sprintf("Min(%d members)", len(m.members)) }
