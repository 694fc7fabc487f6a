// Package atm implements the ATM backbone substrate: cell and link
// constants, the worst-case analysis of FIFO output-port multiplexers (the
// variable-delay server inside switches and interface devices, following the
// busy-period bounds of Cruz and of Raha et al. that the paper adopts), and
// a cell-level discrete-event simulator used to validate the bounds.
//
// Unit convention: traffic envelopes carry payload bits. ATM overhead
// (5 header octets per 53-octet cell) is accounted by servicing payload at
// the payload-effective capacity PayloadCapacity(link rate).
package atm

import (
	"fmt"
	"math"
)

// ATM constants.
const (
	// CellWireBits is the size of a cell on the wire: 53 octets.
	CellWireBits = 53 * 8
	// CellPayloadBits is the payload C_S carried per cell: 48 octets.
	CellPayloadBits = 48 * 8
	// DefaultLinkBps is the standard OC-3 link rate used in the paper's
	// evaluation: 155 Mb/s.
	DefaultLinkBps = 155e6
	// DefaultInputDelay is the per-cell input-stage processing latency of a
	// backbone switch (seconds), per DESIGN.md.
	DefaultInputDelay = 10e-6
	// DefaultFabricDelay is the fabric transit latency of a backbone switch
	// (seconds), per DESIGN.md.
	DefaultFabricDelay = 10e-6
)

// payloadFraction is the dimensionless payload share of each cell's wire
// bits: 48 of 53 octets.
const payloadFraction = float64(CellPayloadBits) / float64(CellWireBits)

// PayloadCapacity converts a wire rate to the payload-effective service rate
// seen by envelopes that count payload bits.
func PayloadCapacity(wireBps float64) float64 {
	return wireBps * payloadFraction
}

// CellTime returns the transmission time of one cell on a link of the given
// wire rate.
func CellTime(wireBps float64) float64 {
	return CellWireBits / wireBps
}

// CellsPerFrame returns F_C: the number of cells needed to carry a frame of
// the given payload size (Theorem 2).
func CellsPerFrame(frameBits float64) int {
	if frameBits <= 0 {
		return 0
	}
	n := int(frameBits) / CellPayloadBits
	if float64(n*CellPayloadBits) < frameBits {
		n++
	}
	return n
}

// SwitchParams captures the constant-delay stages of an ATM switch: input
// module processing and fabric transit. The output port is the variable
// (queueing) stage and is analyzed by AnalyzeMux.
type SwitchParams struct {
	// InputDelay is the constant per-cell input-module latency (seconds).
	InputDelay float64
	// FabricDelay is the constant fabric transit latency (seconds).
	FabricDelay float64
}

// Validate reports whether the parameters are physically meaningful.
func (p SwitchParams) Validate() error {
	if !(p.InputDelay >= 0) || math.IsInf(p.InputDelay, 1) {
		return fmt.Errorf("atm: input delay %v must be non-negative and finite", p.InputDelay)
	}
	if !(p.FabricDelay >= 0) || math.IsInf(p.FabricDelay, 1) {
		return fmt.Errorf("atm: fabric delay %v must be non-negative and finite", p.FabricDelay)
	}
	return nil
}

// ConstantDelay returns the total fixed latency a cell spends in the switch
// before reaching the output port queue.
func (p SwitchParams) ConstantDelay() float64 { return p.InputDelay + p.FabricDelay }

// DefaultSwitchParams returns the constants recorded in DESIGN.md: 10 µs
// input processing and 10 µs fabric transit.
func DefaultSwitchParams() SwitchParams {
	return SwitchParams{InputDelay: DefaultInputDelay, FabricDelay: DefaultFabricDelay}
}
