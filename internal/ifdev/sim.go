package ifdev

import (
	"errors"
	"fmt"

	"fafnet/internal/atm"
	"fafnet/internal/des"
)

// SegmenterSim is the DES counterpart of the sender-side interface device:
// a LAN frame entering the device is delayed by the constant stages and then
// segmented into ATM cells submitted to an output port. The delay is the
// same for every frame, so frames are segmented in the order they arrived:
// one bound handler drains a FIFO.
type SegmenterSim struct {
	sim      *des.Simulator
	params   Params
	out      *atm.PortSim
	frameSeq map[string]int
	inDevice des.FIFO[lanFrame]
	segment  func() // s.segmentNext
}

// lanFrame is a frame inside the sender-side device, waiting to be cut into
// cells.
type lanFrame struct {
	connID  string
	seq     int
	bits    float64
	created float64
}

// NewSegmenterSim builds a segmenter feeding cells into out.
func NewSegmenterSim(sim *des.Simulator, params Params, out *atm.PortSim) (*SegmenterSim, error) {
	if sim == nil {
		return nil, errors.New("ifdev: SegmenterSim requires a simulator")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if out == nil {
		return nil, errors.New("ifdev: SegmenterSim requires an output port")
	}
	s := &SegmenterSim{sim: sim, params: params, out: out, frameSeq: make(map[string]int)}
	s.segment = s.segmentNext
	return s, nil
}

// ReceiveFrame accepts one LAN frame for the given connection; after the
// device's constant sender delay its cells enter the output-port queue.
func (s *SegmenterSim) ReceiveFrame(connID string, frameBits float64) error {
	return s.ReceiveFrameAt(connID, frameBits, s.sim.Now())
}

// ReceiveFrameAt is ReceiveFrame with an explicit origin timestamp carried
// in the cells' Created field, so an end-to-end harness can measure from the
// original emission instant rather than from the device entrance.
func (s *SegmenterSim) ReceiveFrameAt(connID string, frameBits, created float64) error {
	if frameBits <= 0 {
		return fmt.Errorf("ifdev: frame size %v must be positive", frameBits)
	}
	seq := s.frameSeq[connID]
	s.frameSeq[connID] = seq + 1
	if _, err := s.sim.After(s.params.SenderConstantDelay(), s.segment); err != nil {
		return fmt.Errorf("ifdev: scheduling segmentation: %w", err)
	}
	s.inDevice.Push(lanFrame{connID: connID, seq: seq, bits: frameBits, created: created})
	return nil
}

// segmentNext cuts the oldest frame in the device into cells and submits
// them to the output port.
func (s *SegmenterSim) segmentNext() {
	f := s.inDevice.Pop()
	cells := atm.CellsPerFrame(f.bits)
	remaining := f.bits
	for i := 0; i < cells; i++ {
		payload := float64(atm.CellPayloadBits)
		if remaining < payload {
			payload = remaining
		}
		remaining -= payload
		s.out.Submit(atm.Cell{
			ConnID:      f.connID,
			FrameSeq:    f.seq,
			CellSeq:     i,
			LastOfFrame: i == cells-1,
			PayloadBits: payload,
			Created:     f.created,
		})
	}
}

// ReassembledFrame reports a frame fully reassembled at the receiver-side
// interface device.
type ReassembledFrame struct {
	// ConnID identifies the connection.
	ConnID string
	// FrameSeq is the frame's sequence number within the connection.
	FrameSeq int
	// PayloadBits is the reassembled payload.
	PayloadBits float64
	// FirstCellCreated is the creation time of the frame's first cell
	// (used by the validation harness to compute spans).
	FirstCellCreated float64
	// Completed is the simulation time the frame left the device (after the
	// reassembly handoff delay).
	Completed float64
}

// ReassemblerSim is the DES counterpart of the receiver-side interface
// device: it collects cells per (connection, frame) and, when the last cell
// of a frame arrives, hands the frame onward after the constant receiver
// delay. The delay is the same for every frame, so hand-offs fire in the
// order frames completed: one bound handler drains a FIFO.
type ReassemblerSim struct {
	sim       *des.Simulator
	params    Params
	deliver   func(ReassembledFrame)
	partial   map[frameKey]partialFrame
	completed des.FIFO[ReassembledFrame]
	handOff   func() // r.handOffNext
}

// frameKey identifies a frame under reassembly.
type frameKey struct {
	conn  string
	frame int
}

type partialFrame struct {
	payload float64
	first   float64
	cells   int
}

// NewReassemblerSim builds a reassembler that invokes deliver for every
// completed frame.
func NewReassemblerSim(sim *des.Simulator, params Params, deliver func(ReassembledFrame)) (*ReassemblerSim, error) {
	if sim == nil {
		return nil, errors.New("ifdev: ReassemblerSim requires a simulator")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if deliver == nil {
		return nil, errors.New("ifdev: ReassemblerSim requires a delivery callback")
	}
	r := &ReassemblerSim{sim: sim, params: params, deliver: deliver, partial: make(map[frameKey]partialFrame)}
	r.handOff = r.handOffNext
	return r, nil
}

// ReceiveCell accepts one cell from the ATM side.
func (r *ReassemblerSim) ReceiveCell(c atm.Cell) {
	key := frameKey{conn: c.ConnID, frame: c.FrameSeq}
	pf, ok := r.partial[key]
	if !ok {
		pf.first = c.Created
	}
	pf.payload += c.PayloadBits
	pf.cells++
	if !c.LastOfFrame {
		r.partial[key] = pf
		return
	}
	delete(r.partial, key)
	r.completed.Push(ReassembledFrame{
		ConnID:           c.ConnID,
		FrameSeq:         c.FrameSeq,
		PayloadBits:      pf.payload,
		FirstCellCreated: pf.first,
	})
	if _, err := r.sim.After(r.params.ReceiverConstantDelay(), r.handOff); err != nil {
		panic(fmt.Sprintf("ifdev: scheduling reassembly handoff: %v", err))
	}
}

// handOffNext passes the oldest completed frame onward.
func (r *ReassemblerSim) handOffNext() {
	frame := r.completed.Pop()
	frame.Completed = r.sim.Now()
	r.deliver(frame)
}

// PendingFrames returns the number of partially reassembled frames.
func (r *ReassemblerSim) PendingFrames() int { return len(r.partial) }
