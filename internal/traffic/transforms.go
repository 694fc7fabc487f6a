package traffic

import (
	"fmt"
	"math"
	"sort"

	"fafnet/internal/units"
)

// Aggregate is the superposition of several connections' traffic:
// A(I) = Σ_k A_k(I). Multiplexer analyses use it to bound the combined input
// of every connection sharing an output port.
type Aggregate struct {
	members []Descriptor
}

var _ Descriptor = Aggregate{}
var _ BreakpointProvider = Aggregate{}

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

// Breakpoints implements BreakpointProvider by taking the union of the
// members' breakpoints. Members that emit ascending points (every generator
// in this package) are combined by linear merges with exact duplicates
// dropped, so downstream grid assembly never needs a comparison sort; an
// unsorted member list is sorted defensively first.
func (a Aggregate) Breakpoints(horizon float64) []float64 {
	var pts []float64
	for _, m := range a.members {
		bp, ok := m.(BreakpointProvider)
		if !ok {
			continue
		}
		mp := bp.Breakpoints(horizon)
		if len(mp) == 0 {
			continue
		}
		if !sort.Float64sAreSorted(mp) {
			mp = append([]float64(nil), mp...)
			sort.Float64s(mp)
		}
		if pts == nil {
			pts = append(make([]float64, 0, 2*len(mp)), mp...)
			continue
		}
		merged := make([]float64, 0, len(pts)+len(mp))
		i, j := 0, 0
		for i < len(pts) && j < len(mp) {
			switch {
			case pts[i] < mp[j]:
				merged = append(merged, pts[i])
				i++
			case mp[j] < pts[i]:
				merged = append(merged, mp[j])
				j++
			default: // exact duplicate: grids dedup anyway, drop it here
				merged = append(merged, pts[i])
				i, j = i+1, j+1
			}
		}
		merged = append(merged, pts[i:]...)
		pts = append(merged, mp[j:]...)
	}
	return pts
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
var _ BreakpointProvider = Delayed{}
var _ BreakpointAppender = Delayed{}

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

// Breakpoints implements BreakpointProvider: vertices of A(I+d) occur at the
// inner vertices shifted left by the delay; the cap introduces additional
// crossings which the uniform fallback grid covers.
func (d Delayed) Breakpoints(horizon float64) []float64 {
	return d.AppendBreakpoints(nil, horizon)
}

// AppendBreakpoints implements BreakpointAppender: the inner chain appends
// its points, which are then shifted and filtered where they lie.
func (d Delayed) AppendBreakpoints(dst []float64, horizon float64) []float64 {
	start := len(dst)
	dst = AppendBreakpoints(dst, d.Inner, horizon+d.Delay)
	kept := dst[:start]
	for _, t := range dst[start:] {
		if s := t - d.Delay; s > 0 && units.AlmostLE(s, horizon) {
			kept = append(kept, s)
		}
	}
	return kept
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
var _ BreakpointProvider = Quantized{}
var _ BreakpointAppender = Quantized{}

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

// Breakpoints implements BreakpointProvider by delegation; the ceil steps at
// quantum crossings are covered by the uniform fallback grid and the
// jitter-bracketing applied to these points.
func (q Quantized) Breakpoints(horizon float64) []float64 {
	return q.AppendBreakpoints(nil, horizon)
}

// AppendBreakpoints implements BreakpointAppender by delegation.
func (q Quantized) AppendBreakpoints(dst []float64, horizon float64) []float64 {
	return AppendBreakpoints(dst, q.Inner, horizon)
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
var _ BreakpointProvider = RateCapped{}
var _ BreakpointAppender = RateCapped{}

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

// PeakRate implements the optional peak-rate interface.
func (r RateCapped) PeakRate() float64 { return r.CapBps }

// Breakpoints implements BreakpointProvider by delegation.
func (r RateCapped) Breakpoints(horizon float64) []float64 {
	return r.AppendBreakpoints(nil, horizon)
}

// AppendBreakpoints implements BreakpointAppender by delegation.
func (r RateCapped) AppendBreakpoints(dst []float64, horizon float64) []float64 {
	return AppendBreakpoints(dst, r.Inner, horizon)
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
var _ BreakpointProvider = Min{}

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

// Breakpoints implements BreakpointProvider: the minimum's vertices occur at
// the members' vertices (plus crossings, covered by the fallback grid).
func (m Min) Breakpoints(horizon float64) []float64 {
	var pts []float64
	for _, d := range m.members {
		if bp, ok := d.(BreakpointProvider); ok {
			pts = append(pts, bp.Breakpoints(horizon)...)
		}
	}
	return pts
}

// String implements fmt.Stringer.
func (m Min) String() string { return fmt.Sprintf("Min(%d members)", len(m.members)) }

// Sampled is a tabulated envelope: bits[i] bounds A over any window of length
// grid[i]. Between samples it interpolates conservatively upward (A is
// nondecreasing, so the next sample bounds every shorter window); beyond the
// last sample T it extends subadditively, A(kT + r) <= k·A(T) + A(r), which
// is a sound upper bound for every maximum-rate envelope (the bits in a long
// window are at most the sum of the bits in its pieces). Server analyses use
// it to materialize envelopes whose closed form would be unwieldy.
type Sampled struct {
	grid []float64 // strictly increasing, all positive
	bits []float64 // nondecreasing, same length as grid
	rho  float64   // long-term rate for extension beyond the last sample
}

var _ Descriptor = (*Sampled)(nil)
var _ BreakpointProvider = (*Sampled)(nil)

// NewSampled validates and returns a tabulated envelope. grid must be
// strictly increasing and positive; bits must be nondecreasing, non-negative
// and of equal length; rho is the long-term rate used beyond the last sample.
// Both slices are copied.
func NewSampled(grid, bits []float64, rho float64) (*Sampled, error) {
	if len(grid) == 0 || len(grid) != len(bits) {
		return nil, fmt.Errorf("traffic: Sampled needs equal-length non-empty grid and bits (got %d, %d)", len(grid), len(bits))
	}
	if rho < 0 {
		return nil, fmt.Errorf("traffic: Sampled rho=%v: must be non-negative", rho)
	}
	g := make([]float64, len(grid))
	b := make([]float64, len(bits))
	copy(g, grid)
	copy(b, bits)
	prev := 0.0
	prevBits := 0.0
	for i := range g {
		if g[i] <= prev {
			return nil, fmt.Errorf("traffic: Sampled grid must be strictly increasing and positive at index %d (%v after %v)", i, g[i], prev)
		}
		if b[i] < prevBits-units.Eps {
			return nil, fmt.Errorf("traffic: Sampled bits must be nondecreasing at index %d (%v after %v)", i, b[i], prevBits)
		}
		if b[i] < 0 {
			return nil, fmt.Errorf("traffic: Sampled bits must be non-negative at index %d (%v)", i, b[i])
		}
		prev, prevBits = g[i], b[i]
	}
	return &Sampled{grid: g, bits: b, rho: rho}, nil
}

// Bits implements Descriptor.
func (s *Sampled) Bits(interval float64) float64 {
	if interval <= 0 {
		return 0
	}
	n := len(s.grid)
	last := s.grid[n-1]
	if interval > last {
		// Subadditive extension: split the window into whole multiples of the
		// horizon plus a remainder.
		k := math.Floor(interval / last)
		rem := interval - k*last
		return k*s.bits[n-1] + s.Bits(rem)
	}
	// First sample point >= interval bounds every window of length interval.
	idx := sort.SearchFloat64s(s.grid, interval)
	if idx == n {
		idx = n - 1
	}
	return s.bits[idx]
}

// LongTermRate implements Descriptor.
func (s *Sampled) LongTermRate() float64 { return s.rho }

// Breakpoints implements BreakpointProvider: every sample point is a
// potential vertex.
func (s *Sampled) Breakpoints(horizon float64) []float64 {
	idx := sort.SearchFloat64s(s.grid, horizon)
	if idx < len(s.grid) && units.AlmostLE(s.grid[idx], horizon) {
		idx++
	}
	out := make([]float64, idx)
	copy(out, s.grid[:idx])
	return out
}

// String implements fmt.Stringer.
func (s *Sampled) String() string {
	return fmt.Sprintf("Sampled(%d points, horizon=%.3g s, rho=%.3g bps)", len(s.grid), s.grid[len(s.grid)-1], s.rho)
}
