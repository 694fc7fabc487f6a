package atm

import (
	"errors"
	"fmt"

	"fafnet/internal/des"
	"fafnet/internal/traffic"
	"fafnet/internal/units"
)

// PriorityClass groups the connections of one static-priority level at an
// output port. Class 0 has the highest priority.
type PriorityClass struct {
	// Inputs are the envelopes of the connections in this class.
	Inputs []traffic.Descriptor
}

// PriorityMuxResult is the outcome of the static-priority port analysis.
type PriorityMuxResult struct {
	// ClassDelay[k] is the worst-case queueing delay of class k, including
	// the one-cell non-preemptive blocking from lower classes.
	ClassDelay []float64
	// Outputs mirrors the input structure: Outputs[k][i] is the envelope of
	// class k's i-th connection at the port exit.
	Outputs [][]traffic.Descriptor
}

// AnalyzePriorityMux bounds a non-preemptive static-priority output port
// (an extension beyond the paper's FIFO ports, following the standard
// busy-period argument): class k is delayed only by classes 0..k plus at
// most one cell already on the wire from a lower class,
//
//	d_k = max_t ( Σ_{j<=k} A_j(t) − C·t )/C + cellTime.
//
// The port serves payload at p.CapacityBps; cell blocking is one wire cell
// at the corresponding wire rate.
func AnalyzePriorityMux(classes []PriorityClass, p MuxParams, opts MuxOptions) (PriorityMuxResult, error) {
	if len(classes) == 0 {
		return PriorityMuxResult{}, errors.New("atm: AnalyzePriorityMux requires at least one class")
	}
	if p.CapacityBps <= 0 {
		return PriorityMuxResult{}, fmt.Errorf("atm: capacity %v must be positive", p.CapacityBps)
	}
	ws := opts.workspace()
	// One wire cell at the wire rate equals one payload's worth of bits at
	// the payload-effective rate: wire/(C·wire/payload) = payload/C.
	blocking := CellPayloadBits / p.CapacityBps

	res := PriorityMuxResult{
		ClassDelay: make([]float64, len(classes)),
		Outputs:    make([][]traffic.Descriptor, len(classes)),
	}
	var cumulative []traffic.Descriptor
	for k, class := range classes {
		if len(class.Inputs) == 0 {
			return PriorityMuxResult{}, fmt.Errorf("atm: priority class %d is empty", k)
		}
		for i, in := range class.Inputs {
			if in == nil {
				return PriorityMuxResult{}, fmt.Errorf("atm: class %d input %d is nil", k, i)
			}
		}
		cumulative = append(cumulative, class.Inputs...)
		agg := traffic.NewAggregate(cumulative...)
		if agg.LongTermRate() >= p.CapacityBps*(1-units.RelTol) {
			return PriorityMuxResult{}, fmt.Errorf("%w: classes 0..%d carry %v bps, C=%v bps",
				ErrMuxOverload, k, agg.LongTermRate(), p.CapacityBps)
		}
		_, backlog, err := scanMux(agg, p.CapacityBps, ws)
		if err != nil {
			return PriorityMuxResult{}, fmt.Errorf("atm: class %d: %w", k, err)
		}
		d := backlog/p.CapacityBps + blocking
		res.ClassDelay[k] = d
		outs := make([]traffic.Descriptor, len(class.Inputs))
		for i, in := range class.Inputs {
			out, derr := traffic.NewDelayed(in, d, p.CapacityBps)
			if derr != nil {
				return PriorityMuxResult{}, fmt.Errorf("atm: class %d output %d: %w", k, i, derr)
			}
			outs[i] = out
		}
		res.Outputs[k] = outs
	}
	return res, nil
}

// PriorityPortSim is a non-preemptive static-priority cell transmitter: the
// highest-priority nonempty class sends next; a cell already on the wire is
// never interrupted. It is the DES counterpart of AnalyzePriorityMux.
type PriorityPortSim struct {
	sim     *des.Simulator
	wireBps float64
	prop    float64
	sink    func(Cell)
	queues  [][]Cell
	busy    bool
	sent    int64
}

// NewPriorityPortSim creates a priority port with the given number of
// classes (class 0 highest).
func NewPriorityPortSim(sim *des.Simulator, wireBps, propagation float64, classes int, sink func(Cell)) (*PriorityPortSim, error) {
	if sim == nil {
		return nil, errors.New("atm: PriorityPortSim requires a simulator")
	}
	if wireBps <= 0 {
		return nil, fmt.Errorf("atm: wire rate %v must be positive", wireBps)
	}
	if propagation < 0 {
		return nil, fmt.Errorf("atm: propagation %v must be non-negative", propagation)
	}
	if classes < 1 {
		return nil, fmt.Errorf("atm: need at least one priority class, got %d", classes)
	}
	if sink == nil {
		return nil, errors.New("atm: PriorityPortSim requires a sink")
	}
	return &PriorityPortSim{
		sim:     sim,
		wireBps: wireBps,
		prop:    propagation,
		sink:    sink,
		queues:  make([][]Cell, classes),
	}, nil
}

// Submit enqueues a cell at the given priority class.
func (p *PriorityPortSim) Submit(class int, c Cell) error {
	if class < 0 || class >= len(p.queues) {
		return fmt.Errorf("atm: priority class %d out of range [0,%d)", class, len(p.queues))
	}
	p.queues[class] = append(p.queues[class], c)
	if !p.busy {
		p.startNext()
	}
	return nil
}

// QueueLen returns the number of waiting cells in one class.
func (p *PriorityPortSim) QueueLen(class int) int { return len(p.queues[class]) }

// Sent returns the number of cells fully transmitted.
func (p *PriorityPortSim) Sent() int64 { return p.sent }

func (p *PriorityPortSim) startNext() {
	var next Cell
	found := false
	for k := range p.queues {
		if len(p.queues[k]) > 0 {
			next = p.queues[k][0]
			p.queues[k] = p.queues[k][1:]
			found = true
			break
		}
	}
	if !found {
		p.busy = false
		return
	}
	p.busy = true
	c := next
	txEnd := p.sim.Now() + CellTime(p.wireBps)
	if _, err := p.sim.Schedule(txEnd, func() {
		p.sent++
		if p.prop == 0 {
			p.sink(c)
		} else if _, err := p.sim.Schedule(txEnd+p.prop, func() { p.sink(c) }); err != nil {
			panic(fmt.Sprintf("atm: priority delivery scheduling failed: %v", err))
		}
		p.startNext()
	}); err != nil {
		panic(fmt.Sprintf("atm: priority transmission scheduling failed: %v", err))
	}
}
