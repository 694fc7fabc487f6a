package atm

import (
	"errors"
	"fmt"
	"slices"

	"fafnet/internal/traffic"
	"fafnet/internal/units"
)

// Mux analysis failure modes.
var (
	// ErrMuxOverload indicates the long-term rates of the multiplexed
	// connections exceed the port's service rate.
	ErrMuxOverload = errors.New("atm: aggregate long-term rate exceeds port capacity")
	// ErrMuxNoConvergence indicates the busy-period search did not find an
	// idle point within the configured horizon.
	ErrMuxNoConvergence = errors.New("atm: busy-period search did not converge")
)

// MuxParams parameterizes a FIFO output-port multiplexer.
type MuxParams struct {
	// CapacityBps is the payload-effective service rate of the port.
	CapacityBps float64
	// BufferBits bounds the port queue; 0 means unlimited. When positive,
	// the analysis fails if the worst-case backlog exceeds it (a loss would
	// make the delay unbounded, as in Theorem 1).
	BufferBits float64
}

// The busy-period search.
const (
	// initialHorizon seeds the doubling busy-period search (seconds); 16 ms
	// covers several TTRTs of the paper's scenarios on the first try.
	initialHorizon = 16e-3
	// maxHorizon bounds the busy-period search (seconds).
	maxHorizon = 4
)

// MuxOptions carries the resources of an analysis; the analysis needs none
// beyond its input today, and the zero value is the one to pass.
type MuxOptions struct{}

// MuxResult is the outcome of the FIFO multiplexer analysis.
type MuxResult struct {
	// BusyPeriod is (an upper bound on) the longest interval during which
	// the port never idles.
	BusyPeriod float64
	// Delay is the worst-case queueing delay through the port:
	// max over the busy period of (ΣA_k(t) − C·t)/C.
	Delay float64
	// BacklogBits is the worst-case queue content.
	BacklogBits float64
	// Outputs holds, for each input connection in order, its envelope at the
	// port exit: min(C·I, A_k(I + Delay)).
	Outputs []traffic.Descriptor
}

// ErrMuxBufferOverflow indicates the worst-case backlog exceeds the port
// buffer.
var ErrMuxBufferOverflow = errors.New("atm: worst-case backlog exceeds port buffer")

// AnalyzeMux bounds a FIFO multiplexer fed by the given per-connection
// envelopes and serving at p.CapacityBps. It returns the busy period, the
// worst-case delay, the worst-case backlog, and each connection's output
// envelope. An error means no finite bound exists (overload, overflow, or a
// busy period beyond the search horizon).
func AnalyzeMux(inputs []traffic.Descriptor, p MuxParams, opts MuxOptions) (MuxResult, error) {
	if len(inputs) == 0 {
		return MuxResult{}, errors.New("atm: AnalyzeMux requires at least one input")
	}
	for i, in := range inputs {
		if in == nil {
			return MuxResult{}, fmt.Errorf("atm: input %d is nil", i)
		}
	}
	res, err := AnalyzeAggregate(traffic.NewAggregate(inputs...), p, opts)
	if err != nil {
		return MuxResult{}, err
	}

	outs := make([]traffic.Descriptor, len(inputs))
	for i, in := range inputs {
		out, derr := traffic.NewDelayed(in, res.Delay, p.CapacityBps)
		if derr != nil {
			return MuxResult{}, fmt.Errorf("atm: building output envelope %d: %w", i, derr)
		}
		outs[i] = out
	}
	res.Outputs = outs
	return res, nil
}

// AnalyzeAggregate bounds the same FIFO multiplexer given the combined
// envelope of all its inputs — already summed — so callers that hold the
// aggregate skip the per-call Aggregate construction. The result carries no
// per-input Outputs (the caller owns the member set); everything else is
// identical to AnalyzeMux over the member envelopes. The busy period and the
// backlog are read off agg's segments in one walk (traffic.Backlog).
func AnalyzeAggregate(agg traffic.Descriptor, p MuxParams, opts MuxOptions) (MuxResult, error) {
	if agg == nil {
		return MuxResult{}, errors.New("atm: AnalyzeAggregate requires an aggregate envelope")
	}
	if err := p.check(agg.LongTermRate()); err != nil {
		return MuxResult{}, err
	}
	return p.result(traffic.Backlog(agg, p.CapacityBps, initialHorizon, 2*maxHorizon))
}

// AnalyzeMembers is AnalyzeAggregate over ws.Sum(flats), result and error
// bit for bit, with the members summed in ws only as far as the port's busy
// period can reach (traffic.Workspace.Backlog). The overload test reads the
// members' long-term rates summed in the order the sum adds them.
func AnalyzeMembers(ws *traffic.Workspace, flats []*traffic.Flat, p MuxParams) (MuxResult, error) {
	if len(flats) == 0 || slices.Contains(flats, nil) {
		return MuxResult{}, errors.New("atm: AnalyzeMembers requires member envelopes")
	}
	var rho float64
	for _, f := range flats {
		rho += f.LongTermRate()
	}
	if err := p.check(rho); err != nil {
		return MuxResult{}, err
	}
	return p.result(ws.Backlog(flats, p.CapacityBps, initialHorizon, 2*maxHorizon))
}

// check validates p, counts the analysis and runs the overload test on the
// aggregate long-term rate rhoBps.
func (p MuxParams) check(rhoBps float64) error {
	if p.CapacityBps <= 0 {
		return fmt.Errorf("atm: capacity %v must be positive", p.CapacityBps)
	}
	if p.BufferBits < 0 {
		return fmt.Errorf("atm: buffer %v must be non-negative", p.BufferBits)
	}
	mMuxAnalyses.Inc()
	if rhoBps >= p.CapacityBps*(1-units.RelTol) {
		mMuxInfeasible.Inc()
		return fmt.Errorf("%w: Σρ=%v bps, C=%v bps", ErrMuxOverload, rhoBps, p.CapacityBps)
	}
	return nil
}

// result turns the busy-period walk's answer into the analysis result: the
// convergence and buffer verdicts, and the delay the backlog takes to drain.
func (p MuxParams) result(busy, backlog float64, ok bool) (MuxResult, error) {
	if !ok {
		mMuxInfeasible.Inc()
		return MuxResult{}, fmt.Errorf("%w: no idle point within %v s", ErrMuxNoConvergence, maxHorizon)
	}
	delay := backlog / p.CapacityBps
	if p.BufferBits > 0 && backlog > p.BufferBits {
		mMuxInfeasible.Inc()
		return MuxResult{}, fmt.Errorf("%w: backlog=%v bits, buffer=%v bits", ErrMuxBufferOverflow, backlog, p.BufferBits)
	}
	return MuxResult{BusyPeriod: busy, Delay: delay, BacklogBits: backlog}, nil
}
