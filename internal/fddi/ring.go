// Package fddi implements the FDDI timed-token substrate of the paper:
// the synchronous-bandwidth accounting of Eq. 26–27, the FDDI_MAC server
// analysis of Theorem 1 (busy interval, buffer requirement, worst-case delay
// and output envelope), and a packet-level timed-token ring simulator used to
// validate the analytic bounds.
package fddi

import (
	"fmt"
	"math"
	"sort"
)

// Protocol constants (ANSI X3T9.5).
const (
	// DefaultBandwidthBps is the FDDI medium rate: 100 Mb/s.
	DefaultBandwidthBps = 100e6
	// MaxFrameBits is the maximum FDDI frame size (4500 octets).
	MaxFrameBits = 4500 * 8
	// DefaultTTRT is a typical target token rotation time for real-time
	// operation (8 ms).
	DefaultTTRT = 8e-3
	// DefaultOverhead is the protocol-dependent per-rotation overhead Δ
	// (token walk, preambles, claim margin) reserved out of the TTRT.
	DefaultOverhead = 1e-3
	// DefaultHopLatency is the per-hop propagation plus station latency
	// (seconds) used by the paper's evaluation rings.
	DefaultHopLatency = 5e-6
)

// RingConfig describes one FDDI ring.
type RingConfig struct {
	// BandwidthBps is the medium rate in bits per second.
	BandwidthBps float64
	// TTRT is the target token rotation time in seconds. The timed-token
	// protocol guarantees every station its synchronous allocation H once
	// per TTRT (and a worst-case token inter-arrival of 2·TTRT).
	TTRT float64
	// Overhead is the protocol-dependent overhead Δ (seconds per rotation);
	// the sum of all synchronous allocations may not exceed TTRT − Δ.
	Overhead float64
	// HopLatency is the per-hop propagation plus station latency used by the
	// Delay_Line server and the ring simulator.
	HopLatency float64
}

// DefaultRingConfig returns the configuration used throughout the paper's
// evaluation: a 100 Mb/s ring with an 8 ms TTRT.
func DefaultRingConfig() RingConfig {
	return RingConfig{
		BandwidthBps: DefaultBandwidthBps,
		TTRT:         DefaultTTRT,
		Overhead:     DefaultOverhead,
		HopLatency:   DefaultHopLatency,
	}
}

// Validate reports whether the configuration is physically meaningful.
func (c RingConfig) Validate() error {
	switch {
	case !(c.BandwidthBps > 0) || math.IsInf(c.BandwidthBps, 1):
		return fmt.Errorf("fddi: bandwidth %v must be positive and finite", c.BandwidthBps)
	case !(c.TTRT > 0) || math.IsInf(c.TTRT, 1):
		return fmt.Errorf("fddi: TTRT %v must be positive and finite", c.TTRT)
	case !(c.Overhead >= 0):
		return fmt.Errorf("fddi: overhead %v must be non-negative", c.Overhead)
	case c.Overhead >= c.TTRT: //lint:allow floatcmp exact validation bound: any Overhead strictly below TTRT is acceptable
		return fmt.Errorf("fddi: overhead %v leaves no usable TTRT (%v)", c.Overhead, c.TTRT)
	case !(c.HopLatency >= 0) || math.IsInf(c.HopLatency, 1):
		return fmt.Errorf("fddi: hop latency %v must be non-negative and finite", c.HopLatency)
	}
	return nil
}

// UsableTTRT returns TTRT − Δ, the synchronous time divisible among stations.
func (c RingConfig) UsableTTRT() float64 { return c.TTRT - c.Overhead }

// Fits reports whether a ring already carrying allocated seconds per rotation
// (Ω) can grant h more: h is positive and the protocol constraint
// ΣH <= TTRT − Δ still holds.
func (c RingConfig) Fits(allocated, h float64) bool {
	const slack = 1e-12 // forgive float residue from β interpolation
	return h > 0 && h <= math.Max(0, c.UsableTTRT()-allocated)+slack
}

// Ring tracks the synchronous-bandwidth allocations on one FDDI ring. It
// implements the availability computation of Eq. 26–27: the bandwidth
// available to a new connection is TTRT − (Ω + Δ), where Ω is the total
// already allocated. Ring is not safe for concurrent use.
type Ring struct {
	cfg   RingConfig
	alloc map[string]float64 // connection id → H (seconds per rotation)
	// order keeps the allocation ids sorted. Ω is a float sum, and float
	// addition is not associative: summing the map in iteration order made
	// Available() — and with it every β-interpolated allocation downstream —
	// wobble by ULPs from call to call, which broke bit-exact trace replay.
	// All Ω summations walk this slice instead.
	order []string
}

// NewRing validates cfg and returns an empty ring.
func NewRing(cfg RingConfig) (*Ring, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Ring{cfg: cfg, alloc: make(map[string]float64)}, nil
}

// Config returns the ring configuration.
func (r *Ring) Config() RingConfig { return r.cfg }

// Allocated returns Ω: the total synchronous time currently allocated.
// The sum runs in sorted connection-id order so the result is bit-identical
// across calls and across runs holding the same allocations.
func (r *Ring) Allocated() float64 {
	var sum float64
	for _, id := range r.order {
		sum += r.alloc[id]
	}
	return sum
}

// Available returns H^max_avai = TTRT − (Ω + Δ) (Eq. 26–27), clamped at 0.
func (r *Ring) Available() float64 {
	return math.Max(0, r.cfg.UsableTTRT()-r.Allocated())
}

// Allocation returns the synchronous time held by the given connection and
// whether the connection holds any.
func (r *Ring) Allocation(connID string) (float64, bool) {
	h, ok := r.alloc[connID]
	return h, ok
}

// Connections returns the ids of all connections holding an allocation, in
// sorted order.
func (r *Ring) Connections() []string {
	ids := make([]string, len(r.order))
	copy(ids, r.order)
	return ids
}

// Allocate reserves h seconds of synchronous time per rotation for connID.
// It fails if the connection already holds an allocation or if the protocol
// constraint ΣH <= TTRT − Δ would be violated.
func (r *Ring) Allocate(connID string, h float64) error {
	if h <= 0 {
		return fmt.Errorf("fddi: allocation %v for %q must be positive", h, connID)
	}
	if _, ok := r.alloc[connID]; ok {
		return fmt.Errorf("fddi: connection %q already holds an allocation", connID)
	}
	if !r.cfg.Fits(r.Allocated(), h) {
		return fmt.Errorf("fddi: allocation %v for %q exceeds available %v", h, connID, r.Available())
	}
	r.alloc[connID] = h
	i := sort.SearchStrings(r.order, connID)
	r.order = append(r.order, "")
	copy(r.order[i+1:], r.order[i:])
	r.order[i] = connID
	return nil
}

// Release frees the allocation held by connID and reports whether one
// existed.
func (r *Ring) Release(connID string) bool {
	if _, ok := r.alloc[connID]; !ok {
		return false
	}
	delete(r.alloc, connID)
	i := sort.SearchStrings(r.order, connID)
	r.order = append(r.order[:i], r.order[i+1:]...)
	return true
}

// FrameBits returns the frame payload size F_S (bits) that a connection with
// synchronous allocation h uses on this ring: the paper sets F_S = H·BW,
// clamped to the FDDI maximum frame size.
func (c RingConfig) FrameBits(h float64) float64 {
	return math.Min(h*c.BandwidthBps, MaxFrameBits)
}
