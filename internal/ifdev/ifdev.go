// Package ifdev implements the LAN-ATM interface device of the paper: the
// four-stage decomposition of Section 4.3.2 (input port, frame switch,
// frame→cell conversion per Theorem 2, output port) and its receiver-side
// mirror (cell reassembly into frames, transmission onto the destination
// ring). The output-port multiplexer itself is analyzed by atm.AnalyzeMux;
// this package contributes the constant-delay stages and the envelope
// conversions.
package ifdev

import (
	"errors"
	"fmt"
	"math"

	"fafnet/internal/atm"
	"fafnet/internal/traffic"
)

// Params holds the constant-delay characteristics of one interface device,
// as measured or specified by the manufacturer (the paper's Eqs. 18, 20, 22).
type Params struct {
	// InputPortDelay is the fixed latency of the input port stage.
	InputPortDelay float64
	// FrameSwitchDelay is the fixed latency of the frame-switching stage.
	FrameSwitchDelay float64
	// FrameCellProcessing is the maximum time to convert one frame into
	// cells (Theorem 2's delay term).
	FrameCellProcessing float64
	// CellFrameProcessing is the maximum time to hand a fully reassembled
	// frame to the MAC on the destination ring.
	CellFrameProcessing float64
}

// Default stage latencies recorded in DESIGN.md (all in seconds).
const (
	// DefaultInputPortDelay is the fixed input-port stage latency.
	DefaultInputPortDelay = 25e-6
	// DefaultFrameSwitchDelay is the fixed frame-switching stage latency.
	DefaultFrameSwitchDelay = 25e-6
	// DefaultFrameCellProcessing is the per-frame segmentation latency.
	DefaultFrameCellProcessing = 50e-6
	// DefaultCellFrameProcessing is the per-frame reassembly handoff latency.
	DefaultCellFrameProcessing = 50e-6
)

// DefaultParams returns the constants recorded in DESIGN.md: 25 µs port
// stages and 50 µs conversion processing.
func DefaultParams() Params {
	return Params{
		InputPortDelay:      DefaultInputPortDelay,
		FrameSwitchDelay:    DefaultFrameSwitchDelay,
		FrameCellProcessing: DefaultFrameCellProcessing,
		CellFrameProcessing: DefaultCellFrameProcessing,
	}
}

// Validate reports whether the parameters are physically meaningful.
func (p Params) Validate() error {
	for _, v := range []struct {
		name string
		val  float64
	}{
		{"input port delay", p.InputPortDelay},
		{"frame switch delay", p.FrameSwitchDelay},
		{"frame-cell processing", p.FrameCellProcessing},
		{"cell-frame processing", p.CellFrameProcessing},
	} {
		if !(v.val >= 0) || math.IsInf(v.val, 1) {
			return fmt.Errorf("ifdev: %s %v must be non-negative and finite", v.name, v.val)
		}
	}
	return nil
}

// SenderConstantDelay is the fixed latency of ID_S before the output port:
// input port + frame switch + frame→cell conversion (Eq. 16 minus the
// output-port term).
func (p Params) SenderConstantDelay() float64 {
	return p.InputPortDelay + p.FrameSwitchDelay + p.FrameCellProcessing
}

// ReceiverConstantDelay is the fixed latency of ID_R before its FDDI MAC:
// input port + frame switch + reassembly handoff.
func (p Params) ReceiverConstantDelay() float64 {
	return p.InputPortDelay + p.FrameSwitchDelay + p.CellFrameProcessing
}

// FrameCellBits returns F_C·C_S, the payload of the F_C = ⌈F_S/C_S⌉ cells
// a frame of frameBits travels in: the quantum both conversions count
// cells in.
func FrameCellBits(frameBits float64) float64 {
	return float64(atm.CellsPerFrame(frameBits) * atm.CellPayloadBits)
}

// SenderConversion applies Theorem 2: given the envelope of a connection at
// the entrance of ID_S and the connection's frame payload size F_S on the
// sender ring, it returns the envelope at the exit of the
// Frame_Cell_Conversion server,
//
//	Γ'(I) = ⌈I·Γ(I)/F_S⌉ · F_C·C_S / I,
//
// where F_C = ⌈F_S/C_S⌉ cells carry each frame (padding included, so the
// envelope stays an upper bound in payload bits on the ATM side).
func SenderConversion(in traffic.Descriptor, frameBits float64, p Params) (traffic.Descriptor, error) {
	if in == nil {
		return nil, errors.New("ifdev: SenderConversion requires an input descriptor")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if frameBits <= 0 {
		return nil, fmt.Errorf("ifdev: frame size %v must be positive", frameBits)
	}
	out, err := traffic.NewQuantized(in, frameBits, FrameCellBits(frameBits))
	if err != nil {
		return nil, fmt.Errorf("ifdev: frame→cell envelope: %w", err)
	}
	return out, nil
}

// ReceiverConversion mirrors Theorem 2 at ID_R: cells are reassembled into
// frames, so the envelope is re-framed — partially arrived frames round up
// to a whole frame's worth of cells. The padding introduced on the sender
// side is conservatively kept (the reassembled frame is charged its full
// cell payload), so the result remains an upper bound for the traffic handed
// to the MAC on the destination ring.
func ReceiverConversion(in traffic.Descriptor, frameBits float64, p Params) (traffic.Descriptor, error) {
	if in == nil {
		return nil, errors.New("ifdev: ReceiverConversion requires an input descriptor")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if frameBits <= 0 {
		return nil, fmt.Errorf("ifdev: frame size %v must be positive", frameBits)
	}
	q := FrameCellBits(frameBits)
	out, err := traffic.NewQuantized(in, q, q)
	if err != nil {
		return nil, fmt.Errorf("ifdev: cell→frame envelope: %w", err)
	}
	return out, nil
}
