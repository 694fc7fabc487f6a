package atm

import (
	"errors"
	"fmt"
	"sort"

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
	// gridPoints is the uniform fallback resolution per search window.
	gridPoints = 128
	// initialHorizon seeds the doubling busy-period search (seconds); 16 ms
	// covers several TTRTs of the paper's scenarios on the first try.
	initialHorizon = 16e-3
	// maxHorizon bounds the busy-period search (seconds).
	maxHorizon = 4
)

// MuxOptions carries the resources of an analysis; it holds no tuning value.
type MuxOptions struct {
	// Workspace is the scratch the analysis takes its candidate grids from.
	// Its owner (one core.Analyzer) must not run two analyses on it at once.
	// Nil runs the same code on a fresh workspace.
	Workspace *traffic.Workspace
}

// workspace returns the workspace to run on.
func (o MuxOptions) workspace() *traffic.Workspace {
	if o.Workspace == nil {
		return new(traffic.Workspace)
	}
	return o.Workspace
}

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
// envelope of all its inputs — already summed, e.g. the flat breakpoint
// array traffic.Workspace.Sum folds from the member flats — so callers that
// hold lowered members skip both the per-call Aggregate construction and the
// per-point member summation. The result carries no per-input Outputs (the
// caller owns the member set); everything else is identical to AnalyzeMux
// over the member envelopes.
func AnalyzeAggregate(agg traffic.Descriptor, p MuxParams, opts MuxOptions) (MuxResult, error) {
	if agg == nil {
		return MuxResult{}, errors.New("atm: AnalyzeAggregate requires an aggregate envelope")
	}
	if p.CapacityBps <= 0 {
		return MuxResult{}, fmt.Errorf("atm: capacity %v must be positive", p.CapacityBps)
	}
	if p.BufferBits < 0 {
		return MuxResult{}, fmt.Errorf("atm: buffer %v must be non-negative", p.BufferBits)
	}
	mMuxAnalyses.Inc()

	if agg.LongTermRate() >= p.CapacityBps*(1-units.RelTol) {
		mMuxInfeasible.Inc()
		return MuxResult{}, fmt.Errorf("%w: Σρ=%v bps, C=%v bps", ErrMuxOverload, agg.LongTermRate(), p.CapacityBps)
	}

	busy, backlog, err := scanMux(agg, p.CapacityBps, opts.workspace())
	if err != nil {
		mMuxInfeasible.Inc()
		return MuxResult{}, err
	}
	delay := backlog / p.CapacityBps
	if p.BufferBits > 0 && backlog > p.BufferBits*(1+units.RelTol) {
		mMuxInfeasible.Inc()
		return MuxResult{}, fmt.Errorf("%w: backlog=%v bits, buffer=%v bits", ErrMuxBufferOverflow, backlog, p.BufferBits)
	}
	return MuxResult{BusyPeriod: busy, Delay: delay, BacklogBits: backlog}, nil
}

// muxPrefixDivisor sets how much of a horizon's candidate grid scanMux
// assembles before it looks for the busy period's end: the points up to
// horizon/muxPrefixDivisor first, the whole horizon only when no crossing
// lies among them. Busy periods of admissible ports are a small fraction of
// the 16 ms the search starts with, so most scans end in the first part. It
// trades speed, never results: a prefix of the grid is scanned exactly as the
// grid would have been.
const muxPrefixDivisor = 8

// scanMux finds the busy period and the worst-case queue content of a FIFO
// port fed by agg. The busy period ends at the first candidate point where
// the aggregate demand has been fully served (ΣA(t) <= C·t), searched over a
// horizon that doubles as needed; taking the first *grid* point after the
// true crossing only enlarges the extremum search range, which keeps the
// delay bound conservative. Each horizon's grid is assembled only as far as
// it is read: to horizon/muxPrefixDivisor, then — when the crossing is not
// inside — to the horizon. The assembly is a streaming merge, so the shorter
// grid is a prefix of the longer, the crossing scan reads the same points in
// the same order on either, and a crossing found in the prefix is the one the
// full grid gives. The backlog scan then reuses the grid up to the crossing,
// with the t→0⁺ point merged in — the limit matters for envelopes with an
// instantaneous burst. Each grid lives in a workspace buffer for the duration
// of its scan, so on a warmed workspace the search allocates nothing.
func scanMux(agg traffic.Descriptor, capacity float64, ws *traffic.Workspace) (busy, backlog float64, err error) {
	for horizon := initialHorizon; horizon <= maxHorizon*2; horizon *= 2 {
		for _, limit := range [...]float64{horizon / muxPrefixDivisor, horizon} {
			grid := ws.GridPrefix(agg, horizon, gridPoints, limit)
			if i, ok := busyCrossing(agg, grid, capacity); ok {
				busy = grid[i]
				grid = traffic.InsertGridPoint(grid[:i+1], traffic.GridNudge)
				backlog = maxMuxBacklog(agg, grid, capacity)
				ws.Put(grid)
				return busy, backlog, nil
			}
			ws.Put(grid)
		}
	}
	return 0, 0, fmt.Errorf("%w: no idle point within %v s", ErrMuxNoConvergence, maxHorizon)
}

// maxMuxBacklog returns the worst-case queue content: the maximum of
// ΣA(t) − C·t over the grid, which scanMux has cut to the busy period. It is
// the per-probe extremum pass of every FIFO port evaluation, so it is
// annotated: the scan is pure arithmetic over the caller's grid.
//
//fafvet:hotpath
func maxMuxBacklog(agg traffic.Descriptor, grid []float64, capacity float64) float64 {
	var backlog float64
	for _, t := range grid {
		if b := agg.Bits(t) - capacity*t; b > backlog {
			backlog = b
		}
	}
	return backlog
}

// busyCrossing scans one candidate grid for the first point with
// ΣA(t) <= C·t and returns its index. Grid assembly and the retries (a longer
// prefix, a doubled horizon) live in scanMux; this inner scan runs once per
// grid per probe and is annotated.
//
// The scan exploits monotonicity to skip ahead: after observing a = ΣA(t),
// no earlier-unvisited point t' with C·t' + Eps < a can be the crossing (its
// demand is at least a), so the scan resumes at the first grid point past
// (a − Eps)/C. The crossing found is identical to the point-by-point scan's.
//
//fafvet:hotpath
func busyCrossing(agg traffic.Descriptor, grid []float64, capacity float64) (int, bool) {
	for i := 0; i < len(grid); {
		t := grid[i]
		a := agg.Bits(t)
		if a <= capacity*t+units.Eps {
			return i, true
		}
		catchup := (a - units.Eps) / capacity
		i++
		// Galloping + binary search keeps the skip cheap whether the
		// crossing is one point or hundreds of points away.
		if i < len(grid) && grid[i] < catchup {
			lo, step := i, 1
			for lo+step < len(grid) && grid[lo+step] < catchup {
				lo += step
				step *= 2
			}
			hi := min(lo+step, len(grid))
			i = lo + sort.SearchFloat64s(grid[lo:hi], catchup)
		}
	}
	return 0, false
}
