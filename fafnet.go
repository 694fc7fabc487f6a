// Package fafnet is the public facade of the FDDI-ATM-FDDI real-time
// connection library, a reproduction of "Connection-Oriented Communications
// for Real-Time Applications in FDDI-ATM-FDDI Heterogeneous Networks"
// (Chen, Sahoo, Zhao, Raha; ICDCS 1997).
//
// The library answers one question for a heterogeneous network whose FDDI
// segments hang off an ATM backbone: can a new real-time connection be
// admitted so that every connection's worst-case end-to-end delay stays
// within its deadline — and if so, how much synchronous bandwidth should it
// be granted on the sender and receiver rings?
//
// # Quick start
//
//	net, _ := fafnet.NewNetwork(fafnet.DefaultTopology())
//	cac, _ := fafnet.NewController(net, fafnet.Options{Beta: 0.5})
//	src, _ := fafnet.NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)
//	dec, _ := cac.RequestAdmission(fafnet.ConnSpec{
//		ID:       "video-1",
//		Src:      fafnet.HostID{Ring: 0, Index: 0},
//		Dst:      fafnet.HostID{Ring: 1, Index: 0},
//		Source:   src,
//		Deadline: 0.050,
//	})
//	if dec.Admitted {
//		fmt.Printf("granted H_S=%.2f ms, H_R=%.2f ms\n", dec.HS*1e3, dec.HR*1e3)
//	}
//
// The facade re-exports the library's main types; the implementation lives
// in internal packages:
//
//   - internal/core — the paper's contribution: Eq. 7 delay decomposition,
//     the feasible region of Theorems 3–4, and the β-tunable CAC.
//   - internal/traffic — Γ(I) maximum-rate-function descriptors (Eq. 37).
//   - internal/fddi — Theorem 1 and a timed-token ring simulator.
//   - internal/atm — FIFO output-port bounds and a cell-level simulator.
//   - internal/ifdev — the interface device (Theorem 2 conversions).
//   - internal/sim — the Section 6 admission-probability experiment. Its
//     network, source model, lifetimes and deadlines are the paper's fixed
//     setup (DESIGN.md §6); SimConfig sets only the offered load, the CAC
//     options, the request counts, the seed and the destination bias.
//   - internal/packetsim — packet-level validation of the analytic bounds.
package fafnet

import (
	"fafnet/internal/core"
	"fafnet/internal/fddi"
	"fafnet/internal/packetsim"
	"fafnet/internal/shaper"
	"fafnet/internal/sim"
	"fafnet/internal/tokenring"
	"fafnet/internal/topo"
	"fafnet/internal/traffic"
)

// Traffic descriptors (Section 4.2 of the paper).
type (
	// Descriptor is the maximum-rate-function traffic descriptor Γ(I).
	Descriptor = traffic.Descriptor
	// DualPeriodic is the paper's dual-periodic source model (Eq. 37).
	DualPeriodic = traffic.DualPeriodic
	// Periodic is the one-period source model.
	Periodic = traffic.Periodic
	// CBR is a constant-bit-rate source.
	CBR = traffic.CBR
	// LeakyBucket is the (σ, ρ, peak) regulator envelope.
	LeakyBucket = traffic.LeakyBucket
)

// Descriptor constructors.
var (
	// NewDualPeriodic builds the dual-periodic descriptor of Eq. 37.
	NewDualPeriodic = traffic.NewDualPeriodic
	// NewPeriodic builds a one-period descriptor.
	NewPeriodic = traffic.NewPeriodic
	// NewCBR builds a constant-bit-rate descriptor.
	NewCBR = traffic.NewCBR
	// NewLeakyBucket builds a leaky-bucket descriptor.
	NewLeakyBucket = traffic.NewLeakyBucket
)

// Topology (Section 3.1).
type (
	// Topology describes an FDDI-ATM-FDDI network to build.
	Topology = topo.Config
	// Network is a built, immutable topology; per-ring bandwidth bookkeeping
	// lives with the Controller (see Controller.RingLedger).
	Network = topo.Network
	// HostID identifies Host_{i,j}: host j on ring i.
	HostID = topo.HostID
	// Route is a connection's decomposed path (Figure 2).
	Route = topo.Route
	// RingHardware describes one ring segment's protocol parameters; use it
	// with Topology.Rings for heterogeneous networks (mixed TTRTs, mixed
	// media rates, or 802.5 segments via TokenRingConfig.SimConfig).
	RingHardware = fddi.RingConfig
)

var (
	// DefaultTopology returns the paper's evaluation network: 3 FDDI rings
	// × 4 hosts, 3 interface devices, 3 switches on 155 Mb/s links.
	DefaultTopology = topo.Default
	// NewNetwork builds a network from a topology description.
	NewNetwork = topo.NewNetwork
)

// Admission control (Section 5).
type (
	// ConnSpec describes a connection requesting admission.
	ConnSpec = core.ConnSpec
	// Connection is an admitted connection with its allocations.
	Connection = core.Connection
	// Controller is the connection admission controller. It is safe for
	// concurrent use. Verdicts are cached: when a decision problem repeats —
	// the same candidate class against the same admitted multiset —
	// Decision.Delays holds only the candidate's entry and Probes is 0.
	Controller = core.Controller
	// Options configures the controller (β, allocation rule, tolerances).
	Options = core.Options
	// Decision reports one admission outcome.
	Decision = core.Decision
	// Breakdown decomposes a worst-case delay by server (Eq. 7/16).
	Breakdown = core.Breakdown
	// Analyzer computes network-wide worst-case delays.
	Analyzer = core.Analyzer
	// Rule selects the allocation segment on the H_S–H_R plane.
	Rule = core.Rule
	// BufferRequirement reports Theorem 1's worst-case MAC backlogs.
	BufferRequirement = core.BufferRequirement
	// ShaperSpec parameterizes a per-connection (σ, ρ) ingress regulator
	// (set ConnSpec.Shape to enable shaping at the interface device).
	ShaperSpec = shaper.Spec
)

// Allocation rules.
const (
	// RuleProportional is the paper's scheme (Section 5.3, Rule 2).
	RuleProportional = core.RuleProportional
	// RuleFixedSplit is an ablation: equal absolute allocations.
	RuleFixedSplit = core.RuleFixedSplit
	// RuleSenderBiased is an ablation: the sender ring gets its maximum.
	RuleSenderBiased = core.RuleSenderBiased
)

var (
	// NewController builds a CAC over a network.
	NewController = core.NewController
	// NewAnalyzer builds a delay analyzer over a network.
	NewAnalyzer = core.NewAnalyzer
)

// Experiments (Section 6) and validation.
type (
	// SimConfig parameterizes an admission-probability simulation.
	SimConfig = sim.Config
	// SimResult is one run's statistics.
	SimResult = sim.Result
	// Series is one labeled curve of a reproduced figure.
	Series = sim.Series
	// ValidationConfig parameterizes a packet-level validation run.
	ValidationConfig = packetsim.Config
	// ValidationResult reports measured delays against analytic bounds.
	ValidationResult = packetsim.Result
)

// Section 7 extension: IEEE 802.5 token-ring segments. The 802.5 MAC admits
// the same Theorem 1 analysis with the rotation target in place of the TTRT.
type (
	// TokenRingConfig describes one 802.5 segment.
	TokenRingConfig = tokenring.RingConfig
	// FDDIMACOptions tunes the Theorem 1 numeric searches.
	FDDIMACOptions = fddi.Options
)

// DefaultTokenRingConfig returns a 16 Mb/s ring with an 8 ms rotation.
var DefaultTokenRingConfig = tokenring.DefaultRingConfig

var (
	// RunSim executes one admission-probability simulation.
	RunSim = sim.Run
	// BetaSweep reproduces Figure 7 (AP vs β).
	BetaSweep = sim.BetaSweep
	// LoadSweep reproduces Figure 8 (AP vs U).
	LoadSweep = sim.LoadSweep
	// RuleSweep runs the allocation-rule ablation (E4).
	RuleSweep = sim.RuleSweep
	// Validate runs the packet-level simulator against the analytic bounds.
	Validate = packetsim.Run
)
