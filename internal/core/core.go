// Package core implements the paper's contribution: the decomposition-based
// worst-case end-to-end delay analysis for FDDI-ATM-FDDI connections (Eq. 7,
// Section 4), the feasible-region characterization on the H_S–H_R plane
// (Theorems 3–4, Section 5.2), and the β-tunable connection admission
// control algorithm (Section 5.3).
package core

import (
	"errors"
	"fmt"
	"math"

	"fafnet/internal/shaper"
	"fafnet/internal/topo"
	"fafnet/internal/traffic"
)

// ConnSpec describes a connection requesting admission: the contract of
// Section 3.2 (traffic specification, QoS requirement, route endpoints).
type ConnSpec struct {
	// ID uniquely identifies the connection (M_{i,j} in the paper).
	ID string
	// Src and Dst are the endpoint hosts.
	Src, Dst topo.HostID
	// Source is the traffic descriptor Γ(I) declared at the sender. It must
	// be one traffic.Flatten can lower — a source model or transform of
	// package traffic, in any composition: the analysis holds every envelope
	// as a flat breakpoint array, and a descriptor type from outside the
	// package is an error of the request, from Analyzer.Delays and from
	// RequestAdmission alike.
	Source traffic.Descriptor
	// Deadline D is the required bound on worst-case end-to-end delay.
	Deadline float64
	// HostBufferBits bounds the MAC transmit buffer at the source host
	// (0 = unlimited).
	HostBufferBits float64
	// IDBufferBits bounds the per-connection MAC buffer at the receiving
	// interface device (0 = unlimited).
	IDBufferBits float64
	// Shape, when non-nil, places a (σ, ρ) regulator at the sender-side
	// interface device (before segmentation): the connection's traffic
	// enters the backbone leaky-bucket bounded, trading a bounded local
	// shaping delay for tighter envelopes at every shared port downstream.
	Shape *shaper.Spec
}

// Validate reports whether the specification is complete.
func (s ConnSpec) Validate() error {
	switch {
	case s.ID == "":
		return errors.New("core: connection needs an id")
	case s.Source == nil:
		return fmt.Errorf("core: connection %q needs a traffic descriptor", s.ID)
	case !(s.Deadline > 0) || math.IsInf(s.Deadline, 1):
		return fmt.Errorf("core: connection %q deadline %v must be positive and finite", s.ID, s.Deadline)
	case !(s.HostBufferBits >= 0) || math.IsInf(s.HostBufferBits, 1):
		return fmt.Errorf("core: connection %q host buffer %v must be non-negative and finite", s.ID, s.HostBufferBits)
	case !(s.IDBufferBits >= 0) || math.IsInf(s.IDBufferBits, 1):
		return fmt.Errorf("core: connection %q interface-device buffer %v must be non-negative and finite", s.ID, s.IDBufferBits)
	}
	if s.Shape != nil {
		if err := s.Shape.Validate(); err != nil {
			return fmt.Errorf("core: connection %q: %w", s.ID, err)
		}
	}
	return nil
}

// Connection is an admitted (or candidate) connection together with its
// route and synchronous-bandwidth allocations.
type Connection struct {
	ConnSpec
	// Route is the decomposed path (Figure 2).
	Route topo.Route
	// HS is the synchronous allocation on the sender ring (seconds per
	// rotation).
	HS float64
	// HR is the synchronous allocation granted to the receiving interface
	// device on the destination ring. Zero for same-ring routes.
	HR float64
}

// clone returns a copy so search probes can vary allocations without
// mutating admitted state.
func (c *Connection) clone() *Connection {
	cp := *c
	return &cp
}

// AnalysisOptions is NewAnalyzer's options parameter. It has no field: the
// server analyses take no option but the analyzer's own workspace.
type AnalysisOptions struct{}

// PortDelay reports the worst-case delay contributed by one shared FIFO
// port.
type PortDelay struct {
	Port  topo.PortID
	Delay float64
}

// Breakdown decomposes a connection's end-to-end worst-case delay by server,
// mirroring Eq. 7/16 of the paper.
type Breakdown struct {
	// SrcMAC is the Theorem 1 delay at the sender's FDDI MAC.
	SrcMAC float64
	// Shaper is the worst-case delay in the ingress regulator (zero when
	// the connection is unshaped).
	Shaper float64
	// Ports lists the variable (queueing) delays of each shared FIFO port
	// in traversal order.
	Ports []PortDelay
	// DstMAC is the Theorem 1 delay at the receiving interface device's MAC
	// on the destination ring.
	DstMAC float64
	// Constant sums every fixed-latency stage (delay lines, interface
	// device stages, switch constants, link propagation).
	Constant float64
	// Total is the end-to-end worst case (the sum of the above).
	Total float64
	// SrcBufferBits and DstBufferBits are the worst-case backlogs F
	// (Theorem 1, Eq. 10) at the sender host's MAC and the receiving
	// interface device's MAC — the buffer sizes that must be provisioned
	// for loss-free operation.
	SrcBufferBits, DstBufferBits float64
}
