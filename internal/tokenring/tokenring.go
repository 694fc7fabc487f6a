// Package tokenring implements the Section 7 extension of the paper: using
// IEEE 802.5 token-ring segments in place of FDDI. The 802.5 MAC server
// admits the same worst-case analysis as the FDDI timed-token MAC — a
// station holding the token may transmit for up to its token holding time
// (THT) once per token rotation, and the rotation is bounded by the walk
// time plus the sum of all THTs — so Theorem 1 applies with the rotation
// bound in place of the TTRT and the THT in place of the synchronous
// allocation H. The paper notes exactly this: "one only needs to analyze an
// 802.5_MAC server in addition to the servers that have been analyzed".
//
// SimConfig is that mapping: the fddi.RingConfig every analysis, ledger and
// simulator of the module takes.
package tokenring

import "fafnet/internal/fddi"

// Standard 802.5 rates.
const (
	// Rate4Mbps is classic 4 Mb/s token ring.
	Rate4Mbps = 4e6
	// Rate16Mbps is 16 Mb/s token ring.
	Rate16Mbps = 16e6
)

// RingConfig describes one 802.5 segment.
type RingConfig struct {
	// BandwidthBps is the medium rate (4 or 16 Mb/s classically).
	BandwidthBps float64
	// WalkTime is the token walk latency per full rotation.
	WalkTime float64
	// TargetRotation bounds the token rotation: the ring guarantees every
	// station its THT once per TargetRotation provided
	// ΣTHT + WalkTime <= TargetRotation. It plays the role FDDI's TTRT
	// plays in Theorem 1.
	TargetRotation float64
	// HopLatency is the per-hop propagation used for delay lines.
	HopLatency float64
}

// Default 802.5 timing parameters.
const (
	// defaultWalkTime is the token walk latency per rotation (seconds).
	defaultWalkTime = 0.5e-3
	// defaultTargetRotation is the rotation target (seconds), the 802.5
	// counterpart of FDDI's TTRT.
	defaultTargetRotation = 8e-3
	// defaultHopLatency is the per-hop propagation latency (seconds).
	defaultHopLatency = 5e-6
)

// DefaultRingConfig returns a 16 Mb/s ring with an 8 ms rotation target.
func DefaultRingConfig() RingConfig {
	return RingConfig{
		BandwidthBps:   Rate16Mbps,
		WalkTime:       defaultWalkTime,
		TargetRotation: defaultTargetRotation,
		HopLatency:     defaultHopLatency,
	}
}

// SimConfig maps the 802.5 parameters onto the timed-token model, so the
// shared Theorem 1 machinery and the token-passing ring simulator apply: the
// rotation target acts as the TTRT, the walk time as the protocol overhead Δ,
// and a station's THT as its allocation H (per-visit budgets against a
// bounded rotation).
func (c RingConfig) SimConfig() fddi.RingConfig {
	return fddi.RingConfig{
		BandwidthBps: c.BandwidthBps,
		TTRT:         c.TargetRotation,
		Overhead:     c.WalkTime,
		HopLatency:   c.HopLatency,
	}
}
