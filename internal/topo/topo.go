// Package topo models the ATM-based heterogeneous network architecture of
// Section 3.1: FDDI rings populated by hosts, one interface device per ring,
// and a backbone of fully meshed ATM switches. It derives the server path a
// connection traverses (Figure 2) — which FIFO ports it shares, how many
// constant-delay stages it crosses — for the analysis engine in
// internal/core.
package topo

import (
	"fmt"
	"math"

	"fafnet/internal/atm"
	"fafnet/internal/fddi"
	"fafnet/internal/ifdev"
)

// HostID identifies Host_{i,j}: host j on ring i.
type HostID struct {
	Ring, Index int
}

// String implements fmt.Stringer ("H1.2" is host 2 on ring 1).
func (h HostID) String() string { return fmt.Sprintf("H%d.%d", h.Ring, h.Index) }

// PortID names one FIFO output port (a contention point) in the network.
type PortID string

// Config describes a network to build.
type Config struct {
	// NumRings is the number of FDDI segments; each attaches to its own
	// interface device.
	NumRings int
	// HostsPerRing is the number of hosts L_i on every ring.
	HostsPerRing int
	// Ring configures every FDDI segment.
	Ring fddi.RingConfig
	// Rings, when non-empty, overrides Ring per segment (heterogeneous
	// networks: mixed TTRTs, mixed media rates, or 802.5 segments via
	// tokenring.RingConfig.SimConfig()). Its length must equal NumRings.
	Rings []fddi.RingConfig
	// NumSwitches is the number of backbone switches, fully meshed. Ring i
	// attaches (through its interface device) to switch i mod NumSwitches.
	NumSwitches int
	// LinkBps is the wire rate of every ATM link.
	LinkBps float64
	// LinkPropagation is the propagation delay of every ATM link.
	LinkPropagation float64
	// ID configures every interface device.
	ID ifdev.Params
	// Switch configures every backbone switch.
	Switch atm.SwitchParams
}

// Section 6 evaluation constants.
const (
	// defaultTTRT is the evaluation rings' target token rotation time
	// (seconds); real-time FDDI deployments tuned the TTRT low.
	defaultTTRT = 4e-3
	// defaultRingOverhead is the per-rotation protocol overhead Δ (seconds).
	defaultRingOverhead = 0.25e-3
	// defaultLinkPropagation is the propagation delay of every ATM link
	// (seconds).
	defaultLinkPropagation = 10e-6
)

// Default returns the evaluation network of Section 6: three FDDI rings with
// four hosts each, three interface devices, and three switches on 155 Mb/s
// links. The rings run a 4 ms TTRT, which keeps the two-MAC protocol floor
// (≈2·TTRT per ring) well under the evaluation's deadlines.
func Default() Config {
	ring := fddi.RingConfig{
		BandwidthBps: fddi.DefaultBandwidthBps,
		TTRT:         defaultTTRT,
		Overhead:     defaultRingOverhead,
		HopLatency:   fddi.DefaultHopLatency,
	}
	return Config{
		NumRings:        3,
		HostsPerRing:    4,
		Ring:            ring,
		NumSwitches:     3,
		LinkBps:         atm.DefaultLinkBps,
		LinkPropagation: defaultLinkPropagation,
		ID:              ifdev.DefaultParams(),
		Switch:          atm.DefaultSwitchParams(),
	}
}

// Validate reports whether the configuration is buildable.
func (c Config) Validate() error {
	switch {
	case c.NumRings < 1:
		return fmt.Errorf("topo: need at least 1 ring, got %d", c.NumRings)
	case c.HostsPerRing < 1:
		return fmt.Errorf("topo: need at least 1 host per ring, got %d", c.HostsPerRing)
	case c.NumSwitches < 1:
		return fmt.Errorf("topo: need at least 1 switch, got %d", c.NumSwitches)
	case !(c.LinkBps > 0) || math.IsInf(c.LinkBps, 1):
		return fmt.Errorf("topo: link rate %v must be positive and finite", c.LinkBps)
	case !(c.LinkPropagation >= 0) || math.IsInf(c.LinkPropagation, 1):
		return fmt.Errorf("topo: link propagation %v must be non-negative and finite", c.LinkPropagation)
	}
	if err := c.Ring.Validate(); err != nil {
		return fmt.Errorf("topo: ring config: %w", err)
	}
	if len(c.Rings) > 0 {
		if len(c.Rings) != c.NumRings {
			return fmt.Errorf("topo: %d per-ring configs for %d rings", len(c.Rings), c.NumRings)
		}
		for i, rc := range c.Rings {
			if err := rc.Validate(); err != nil {
				return fmt.Errorf("topo: ring %d config: %w", i, err)
			}
		}
	}
	if err := c.ID.Validate(); err != nil {
		return fmt.Errorf("topo: interface device config: %w", err)
	}
	if err := c.Switch.Validate(); err != nil {
		return fmt.Errorf("topo: switch config: %w", err)
	}
	return nil
}

// Network is a built topology. It is immutable — the synchronous-bandwidth
// ledgers live with the admission controller — and so safe for concurrent
// use.
type Network struct {
	cfg Config
}

// NewNetwork validates cfg and builds the topology.
func NewNetwork(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Network{cfg: cfg}, nil
}

// ringConfig resolves the configuration of ring i.
func (c Config) ringConfig(i int) fddi.RingConfig {
	if len(c.Rings) > 0 {
		return c.Rings[i]
	}
	return c.Ring
}

// RingConfig returns the configuration of ring i, honoring per-ring
// overrides.
func (n *Network) RingConfig(i int) fddi.RingConfig { return n.cfg.ringConfig(i) }

// Config returns the network's configuration.
func (n *Network) Config() Config { return n.cfg }

// NumRings returns the number of FDDI segments.
func (n *Network) NumRings() int { return n.cfg.NumRings }

// SwitchOf returns the backbone switch the given ring's interface device
// attaches to.
func (n *Network) SwitchOf(ring int) int { return ring % n.cfg.NumSwitches }

// PortCapacity returns the payload-effective service rate of every FIFO
// port in the backbone.
func (n *Network) PortCapacity() float64 { return atm.PayloadCapacity(n.cfg.LinkBps) }

// ValidHost reports whether h exists in the network.
func (n *Network) ValidHost(h HostID) bool {
	return h.Ring >= 0 && h.Ring < n.cfg.NumRings && h.Index >= 0 && h.Index < n.cfg.HostsPerRing
}

// Hosts returns every host in the network, ring-major.
func (n *Network) Hosts() []HostID {
	hosts := make([]HostID, 0, n.cfg.NumRings*n.cfg.HostsPerRing)
	for r := 0; r < n.cfg.NumRings; r++ {
		for j := 0; j < n.cfg.HostsPerRing; j++ {
			hosts = append(hosts, HostID{Ring: r, Index: j})
		}
	}
	return hosts
}

// Port naming. Each port is one contention point analyzed as a FIFO
// multiplexer.
func idUplinkPort(ring int) PortID          { return PortID(fmt.Sprintf("id%d:up", ring)) }
func interSwitchPort(a, b int) PortID       { return PortID(fmt.Sprintf("sw%d->sw%d", a, b)) }
func switchDownlinkPort(s, ring int) PortID { return PortID(fmt.Sprintf("sw%d->id%d", s, ring)) }

// Route is the decomposed path of one connection (Figure 2): the ordered
// FIFO ports it shares with other connections, plus the total of all
// constant-delay stages (delay lines, interface-device stages, switch
// constant stages, link propagation). Constant-delay servers do not change
// traffic envelopes (Eqs. 13, 17, 19), so only the ports matter for envelope
// propagation.
type Route struct {
	// Src and Dst are the endpoints.
	Src, Dst HostID
	// CrossesBackbone is false only when both endpoints share a ring.
	CrossesBackbone bool
	// Ports lists the shared FIFO output ports in traversal order:
	// ID_S uplink, inter-switch port (when the rings sit on different
	// switches), switch downlink toward ID_R.
	Ports []PortID
	// PortIndex holds, parallel to Ports, each port's dense index in the
	// network: its position in AllPorts, below NumPorts. An analysis keeps
	// its per-port state in arrays under these indexes instead of hashing
	// the names.
	PortIndex []int
	// ConstantDelay sums every fixed-latency stage on the path.
	ConstantDelay float64
	// SwitchesCrossed counts backbone switches on the path.
	SwitchesCrossed int
}

// Route computes the path from src to dst. Routing in the backbone is the
// direct switch-to-switch link (the paper adopts existing routing solutions;
// a full mesh makes the shortest path unique).
func (n *Network) Route(src, dst HostID) (Route, error) {
	if !n.ValidHost(src) {
		return Route{}, fmt.Errorf("topo: unknown source host %v", src)
	}
	if !n.ValidHost(dst) {
		return Route{}, fmt.Errorf("topo: unknown destination host %v", dst)
	}
	if src == dst {
		return Route{}, fmt.Errorf("topo: source and destination are both %v", src)
	}

	r := Route{Src: src, Dst: dst}
	if src.Ring == dst.Ring {
		// Same segment: sender MAC, then the frame propagates around the
		// ring to the destination host directly.
		r.ConstantDelay = n.ringHops(src.Ring, hostStation(src), hostStation(dst))
		return r, nil
	}

	r.CrossesBackbone = true
	sa, sb := n.SwitchOf(src.Ring), n.SwitchOf(dst.Ring)
	r.Ports, r.PortIndex = make([]PortID, 0, 3), make([]int, 0, 3)
	r.Ports = append(r.Ports, idUplinkPort(src.Ring))
	r.PortIndex = append(r.PortIndex, src.Ring)
	links := 2 // ID→switch and switch→ID
	if sa != sb {
		r.Ports = append(r.Ports, interSwitchPort(sa, sb))
		r.PortIndex = append(r.PortIndex, n.interSwitchIndex(sa, sb))
		links++
		r.SwitchesCrossed = 2
	} else {
		r.SwitchesCrossed = 1
	}
	r.Ports = append(r.Ports, switchDownlinkPort(sb, dst.Ring))
	r.PortIndex = append(r.PortIndex, n.downlinkIndex(dst.Ring))

	r.ConstantDelay = n.ringHops(src.Ring, hostStation(src), n.idStation()) + // Delay_Line on FDDI_S
		n.cfg.ID.SenderConstantDelay() +
		float64(links)*n.cfg.LinkPropagation +
		float64(r.SwitchesCrossed)*n.cfg.Switch.ConstantDelay() +
		n.cfg.ID.ReceiverConstantDelay() +
		n.ringHops(dst.Ring, n.idStation(), hostStation(dst)) // Delay_Line on FDDI_R
	return r, nil
}

// hostStation returns the ring-station index of a host: hosts occupy
// stations 0..L−1 and the interface device sits at station L.
func hostStation(h HostID) int { return h.Index }

// idStation returns the station index of the interface device on its ring.
func (n *Network) idStation() int { return n.cfg.HostsPerRing }

// ringHops returns the bit propagation delay from station a to station b
// around ring (the Delay_Line bound of Eq. 14).
func (n *Network) ringHops(ring, a, b int) float64 {
	stations := n.cfg.HostsPerRing + 1
	hops := b - a
	if hops < 0 {
		hops += stations
	}
	return float64(hops) * n.RingConfig(ring).HopLatency
}

// NumPorts returns the number of FIFO ports in the network, the bound of
// every Route.PortIndex.
func (n *Network) NumPorts() int {
	return 2*n.cfg.NumRings + n.cfg.NumSwitches*(n.cfg.NumSwitches-1)
}

// interSwitchIndex is the dense index of the port from switch a to switch
// b ≠ a: after the uplinks, a's ports in order of b, skipping a itself.
func (n *Network) interSwitchIndex(a, b int) int {
	if b > a {
		b--
	}
	return n.cfg.NumRings + a*(n.cfg.NumSwitches-1) + b
}

// downlinkIndex is the dense index of the downlink toward ring's interface
// device: after the uplinks and the inter-switch ports.
func (n *Network) downlinkIndex(ring int) int {
	return n.NumPorts() - n.cfg.NumRings + ring
}

// AllPorts enumerates every FIFO port that can appear on a route, useful for
// exhaustive audits and the packet-level simulator's wiring. A port's
// position in it is its dense index (Route.PortIndex).
func (n *Network) AllPorts() []PortID {
	var ports []PortID
	for r := 0; r < n.cfg.NumRings; r++ {
		ports = append(ports, idUplinkPort(r))
	}
	for a := 0; a < n.cfg.NumSwitches; a++ {
		for b := 0; b < n.cfg.NumSwitches; b++ {
			if a != b {
				ports = append(ports, interSwitchPort(a, b))
			}
		}
	}
	for r := 0; r < n.cfg.NumRings; r++ {
		ports = append(ports, switchDownlinkPort(n.SwitchOf(r), r))
	}
	return ports
}
