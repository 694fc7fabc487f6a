package workload

import (
	"fmt"
	"math"

	"fafnet/internal/des"
	"fafnet/internal/scenario"
	"fafnet/internal/units"
)

// sin2pi returns sin(2πx).
func sin2pi(x float64) float64 { return math.Sin(2 * math.Pi * x) }

// ClassArrival is one materialized connection request emitted by a
// Generator: the class, the arrival instant, and the per-connection draws
// (deadline, lifetime). Endpoints are not chosen here — source-host
// selection depends on which hosts are idle, which only the admission
// simulation knows.
type ClassArrival struct {
	// At is the absolute arrival time in seconds.
	At float64
	// Class is the class name; ClassIndex its position in the spec.
	Class      string
	ClassIndex int
	// Deadline is the end-to-end deadline in seconds (the class SLO, or a
	// uniform draw from the class range).
	Deadline float64
	// Lifetime is the holding time in seconds if admitted.
	Lifetime float64
	// Source is the class's traffic model in scenario JSON form, so the
	// arrival can be recorded to a trace and rebuilt on replay.
	Source scenario.Source
}

// classGen is the per-class generation state. Every class owns a private
// RNG derived from the base seed, so adding or reordering classes never
// perturbs another class's stream.
type classGen struct {
	class  Class
	index  int
	rng    *des.RNG
	gap    func() float64 // one interarrival draw
	peak   float64        // diurnal peak factor (1 when unmodulated)
	nextAt float64        // next accepted arrival instant
}

// Generator merges the per-class arrival streams into one chronological
// request stream. It is deterministic for a given (spec, seed) pair and not
// safe for concurrent use.
type Generator struct {
	classes []*classGen
}

// classSeedStride separates per-class RNG streams in seed space.
const classSeedStride = 1_000_003

// NewGenerator validates the spec and returns a generator whose stream is a
// pure function of (spec, seed).
func NewGenerator(spec Spec, seed int64) (*Generator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{}
	for i, c := range spec.Classes {
		cg := &classGen{class: c, index: i, rng: des.NewRNG(seed + int64(i+1)*classSeedStride)}
		var err error
		if cg.gap, cg.peak, err = c.gaps(cg.rng); err != nil {
			return nil, fmt.Errorf("workload: class %q: %w", c.Name, err)
		}
		cg.advance()
		g.classes = append(g.classes, cg)
	}
	return g, nil
}

// gaps builds the class's interarrival process on rng and returns its draw
// function beside the diurnal peak factor (1 when unmodulated): thinning
// generates candidates at the peak rate and keeps each with probability
// factor(t)/peak.
func (c Class) gaps(rng *des.RNG) (gap func() float64, peak float64, err error) {
	peak = 1
	if d := c.Diurnal; d != nil {
		peak += d.Amplitude
	}
	rate := c.Arrival.RatePerSec * peak
	switch c.Arrival.Process {
	case ProcessPoisson:
		p, err := des.NewPoissonProcess(rng, rate)
		if err != nil {
			return nil, 0, err
		}
		return p.Next, peak, nil
	case ProcessGamma:
		p, err := des.NewGammaProcess(rng, rate, c.Arrival.Shape)
		if err != nil {
			return nil, 0, err
		}
		return p.Next, peak, nil
	case ProcessWeibull:
		p, err := des.NewWeibullProcess(rng, rate, c.Arrival.Shape)
		if err != nil {
			return nil, 0, err
		}
		return p.Next, peak, nil
	}
	return nil, 0, fmt.Errorf("unknown arrival process %q", c.Arrival.Process)
}

// advance moves nextAt to the class's next accepted arrival, applying
// diurnal thinning: candidates arrive at the peak rate and survive with
// probability factor(t)/peak. Validate bounds the acceptance probability
// below by minThinningKeep, so the loop ends after 1/minThinningKeep
// candidates in expectation even at the trough.
func (c *classGen) advance() {
	for {
		c.nextAt += c.gap()
		d := c.class.Diurnal
		if d == nil || c.rng.Float64()*c.peak < d.factor(c.nextAt) {
			return
		}
	}
}

// deadline draws the class deadline in seconds.
func (c *classGen) deadline() float64 {
	if c.class.SLOMillis > 0 {
		return c.class.SLOMillis * units.Millisecond
	}
	return c.rng.Uniform(c.class.DeadlineMinMillis*units.Millisecond, c.class.DeadlineMaxMillis*units.Millisecond)
}

// lifetime draws the class holding time in seconds.
func (c *classGen) lifetime() float64 {
	l := c.class.Lifetime
	switch l.Dist {
	case LifetimePareto:
		// Mean α·xm/(α−1) = MeanSeconds fixes the minimum xm.
		xm := l.MeanSeconds * (l.Shape - 1) / l.Shape
		return c.rng.Pareto(l.Shape, xm)
	case LifetimeLognormal:
		// Mean exp(µ + σ²/2) = MeanSeconds fixes µ.
		mu := math.Log(l.MeanSeconds) - l.Shape*l.Shape/2
		return c.rng.Lognormal(mu, l.Shape)
	default:
		return c.rng.Exp(l.MeanSeconds)
	}
}

// Next returns the chronologically next arrival across all classes. The
// stream is unbounded; the caller decides when to stop consuming it.
func (g *Generator) Next() ClassArrival {
	best := g.classes[0]
	for _, c := range g.classes[1:] {
		if c.nextAt < best.nextAt {
			best = c
		}
	}
	a := ClassArrival{
		At:         best.nextAt,
		Class:      best.class.Name,
		ClassIndex: best.index,
		Deadline:   best.deadline(),
		Lifetime:   best.lifetime(),
		Source:     best.class.Source,
	}
	best.advance()
	return a
}
