package atm

import (
	"errors"
	"fmt"

	"fafnet/internal/des"
)

// Cell is one ATM cell in the cell-level simulator.
type Cell struct {
	// ConnID identifies the connection (VC) the cell belongs to.
	ConnID string
	// FrameSeq and CellSeq identify the LAN frame the cell carries a piece
	// of and the cell's index within that frame.
	FrameSeq, CellSeq int
	// LastOfFrame marks the final cell of a frame (reassembly completes on
	// its arrival).
	LastOfFrame bool
	// PayloadBits is the payload carried (<= CellPayloadBits; padded cells
	// still occupy a full cell on the wire).
	PayloadBits float64
	// Created is the simulation time the cell entered the ATM layer.
	Created float64
}

// PortSim is a FIFO cell transmitter: cells queue and are sent serially at
// the configured wire rate; each transmitted cell is handed to the sink
// after the link propagation delay.
//
// Both of its stages fire in the order they were scheduled: one cell is on
// the wire at a time, and every transmitted cell propagates for the same
// constant delay. So each stage is one handler bound at construction,
// draining a FIFO, and an event allocates no closure.
type PortSim struct {
	sim     *des.Simulator
	wireBps float64
	prop    float64
	sink    func(Cell)
	queue   des.FIFO[Cell] // waiting for the wire
	onWire  Cell
	busy    bool
	flight  des.FIFO[Cell] // transmitted, propagating to the sink
	txDone  func()         // p.endTx
	arrive  func()         // p.deliver
	maxQLen int
	sent    int64
}

// NewPortSim creates a port transmitting at wireBps with the given link
// propagation delay; sink receives each cell when its last bit arrives at
// the far end.
func NewPortSim(sim *des.Simulator, wireBps, propagation float64, sink func(Cell)) (*PortSim, error) {
	if sim == nil {
		return nil, errors.New("atm: PortSim requires a simulator")
	}
	if wireBps <= 0 {
		return nil, fmt.Errorf("atm: wire rate %v must be positive", wireBps)
	}
	if propagation < 0 {
		return nil, fmt.Errorf("atm: propagation %v must be non-negative", propagation)
	}
	if sink == nil {
		return nil, errors.New("atm: PortSim requires a sink")
	}
	p := &PortSim{sim: sim, wireBps: wireBps, prop: propagation, sink: sink}
	p.txDone = p.endTx
	p.arrive = p.deliver
	return p, nil
}

// Submit enqueues a cell for transmission.
func (p *PortSim) Submit(c Cell) {
	p.queue.Push(c)
	if p.queue.Len() > p.maxQLen {
		p.maxQLen = p.queue.Len()
	}
	if !p.busy {
		p.startNext()
	}
}

// QueueLen returns the number of cells waiting (excluding the one on the
// wire).
func (p *PortSim) QueueLen() int { return p.queue.Len() }

// MaxQueueLen returns the high-water mark of the queue, in cells.
func (p *PortSim) MaxQueueLen() int { return p.maxQLen }

// Sent returns the number of cells fully transmitted.
func (p *PortSim) Sent() int64 { return p.sent }

func (p *PortSim) startNext() {
	if p.queue.Len() == 0 {
		p.busy = false
		return
	}
	p.busy = true
	p.onWire = p.queue.Pop()
	if _, err := p.sim.Schedule(p.sim.Now()+CellTime(p.wireBps), p.txDone); err != nil {
		panic(fmt.Sprintf("atm: transmission scheduling failed: %v", err))
	}
}

// endTx fires when the cell on the wire has been sent: it starts the cell's
// propagation and the next transmission.
func (p *PortSim) endTx() {
	p.sent++
	c := p.onWire
	if p.prop == 0 {
		p.sink(c)
	} else {
		p.flight.Push(c)
		if _, err := p.sim.Schedule(p.sim.Now()+p.prop, p.arrive); err != nil {
			panic(fmt.Sprintf("atm: delivery scheduling failed: %v", err))
		}
	}
	p.startNext()
}

// deliver fires when the oldest propagating cell reaches the far end.
func (p *PortSim) deliver() { p.sink(p.flight.Pop()) }

// SwitchSim models one ATM switch: cells arriving at any input incur the
// constant input+fabric latency, then are routed by connection id to an
// output port. The latency is the same for every cell, so cells leave the
// fabric in the order they arrived: one bound handler drains a FIFO.
type SwitchSim struct {
	sim     *des.Simulator
	params  SwitchParams
	routes  map[string]*PortSim
	fabric  des.FIFO[switched]
	forward func() // s.leaveFabric
}

// switched is a cell crossing the fabric toward its output port.
type switched struct {
	cell Cell
	out  *PortSim
}

// NewSwitchSim creates a switch with the given constant-delay parameters.
func NewSwitchSim(sim *des.Simulator, params SwitchParams) (*SwitchSim, error) {
	if sim == nil {
		return nil, errors.New("atm: SwitchSim requires a simulator")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	s := &SwitchSim{sim: sim, params: params, routes: make(map[string]*PortSim)}
	s.forward = s.leaveFabric
	return s, nil
}

// Route directs all cells of the given connection to the given output port.
func (s *SwitchSim) Route(connID string, out *PortSim) error {
	if out == nil {
		return fmt.Errorf("atm: route for %q requires an output port", connID)
	}
	if _, dup := s.routes[connID]; dup {
		return fmt.Errorf("atm: connection %q already routed", connID)
	}
	s.routes[connID] = out
	return nil
}

// Unroute removes the route for a connection, reporting whether one existed.
func (s *SwitchSim) Unroute(connID string) bool {
	if _, ok := s.routes[connID]; !ok {
		return false
	}
	delete(s.routes, connID)
	return true
}

// Receive accepts a cell at an input port. Cells of unrouted connections are
// dropped with a panic, since the validation harness must never lose cells
// silently.
func (s *SwitchSim) Receive(c Cell) {
	out, ok := s.routes[c.ConnID]
	if !ok {
		panic(fmt.Sprintf("atm: no route for connection %q", c.ConnID))
	}
	s.fabric.Push(switched{cell: c, out: out})
	if _, err := s.sim.After(s.params.ConstantDelay(), s.forward); err != nil {
		panic(fmt.Sprintf("atm: switch scheduling failed: %v", err))
	}
}

// leaveFabric hands the oldest cell in the fabric to its output port.
func (s *SwitchSim) leaveFabric() {
	w := s.fabric.Pop()
	w.out.Submit(w.cell)
}
