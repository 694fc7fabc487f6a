// Package workload is the multi-class workload-specification layer of the
// evaluation harness. The paper's Section 6 experiment is a single class —
// Poisson arrivals, exponential lifetimes, one dual-periodic source — which
// this package generalizes to JSON specs naming several traffic classes,
// each with its own arrival process (Poisson, Gamma or Weibull renewal),
// lifetime distribution (exponential, Pareto or lognormal), traffic
// descriptor, SLO deadline, and optional diurnal rate modulation applied by
// thinning. Generated arrivals can be recorded as JSON-lines traces and
// replayed bit-identically, which is what makes the calibration harness a
// regression gate rather than a one-off experiment.
package workload

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"fafnet/internal/des"
	"fafnet/internal/scenario"
	"fafnet/internal/units"
)

// Arrival process names accepted in Arrival.Process.
const (
	ProcessPoisson = "poisson"
	ProcessGamma   = "gamma"
	ProcessWeibull = "weibull"
)

// Lifetime distribution names accepted in Lifetime.Dist.
const (
	LifetimeExponential = "exponential"
	LifetimePareto      = "pareto"
	LifetimeLognormal   = "lognormal"
)

// Spec is the top-level JSON document: a named set of traffic classes whose
// arrival streams are superposed over one network.
type Spec struct {
	// Name labels the workload in reports and traces.
	Name string `json:"name"`
	// Classes are the traffic classes; at least one is required.
	Classes []Class `json:"classes"`
}

// Class describes one traffic class.
type Class struct {
	// Name identifies the class in per-class statistics and metrics labels.
	Name string `json:"name"`
	// Arrival is the connection-request arrival process.
	Arrival Arrival `json:"arrival"`
	// Lifetime is the holding-time distribution of admitted connections.
	Lifetime Lifetime `json:"lifetime"`
	// Source is the traffic descriptor every connection of this class
	// declares (same JSON shape as scenario actions).
	Source scenario.Source `json:"source"`
	// SLOMillis, when positive, is the fixed end-to-end deadline (the
	// class's service-level objective) in milliseconds.
	SLOMillis float64 `json:"sloMillis,omitempty"`
	// DeadlineMinMillis and DeadlineMaxMillis bound uniformly drawn
	// deadlines; used when SLOMillis is zero.
	DeadlineMinMillis float64 `json:"deadlineMinMillis,omitempty"`
	DeadlineMaxMillis float64 `json:"deadlineMaxMillis,omitempty"`
	// Diurnal, when non-nil, modulates the arrival rate over time by
	// thinning (see Diurnal).
	Diurnal *Diurnal `json:"diurnal,omitempty"`
}

// Arrival selects the arrival process of a class.
type Arrival struct {
	// Process is "poisson", "gamma" or "weibull".
	Process string `json:"process"`
	// RatePerSec is the mean arrival rate λ in requests per second; the
	// renewal processes derive their scale so the mean interarrival is
	// exactly 1/λ.
	RatePerSec float64 `json:"ratePerSec"`
	// Shape is the Gamma/Weibull shape parameter (ignored for Poisson):
	// shape 1 degenerates to Poisson, below 1 is burstier, above smoother.
	Shape float64 `json:"shape,omitempty"`
}

// Lifetime selects the holding-time distribution of a class.
type Lifetime struct {
	// Dist is "exponential", "pareto" or "lognormal".
	Dist string `json:"dist"`
	// MeanSeconds is the mean holding time 1/µ.
	MeanSeconds float64 `json:"meanSeconds"`
	// Shape parameterizes the heavy tail: the Pareto tail index α (must
	// exceed 1 so the mean exists) or the lognormal σ. Ignored for
	// exponential.
	Shape float64 `json:"shape,omitempty"`
}

// Diurnal modulates a class's arrival rate over simulated time as
// rate(t) = base · (1 + Amplitude·sin(2π(t−Phase)/Period)). It is applied
// by thinning: candidate arrivals are generated at the peak rate
// base·(1+Amplitude) and each is kept with probability rate(t)/peak, which
// is exact for Poisson processes and the standard approximation for the
// renewal processes.
type Diurnal struct {
	// PeriodSeconds is the modulation period (a compressed "day").
	PeriodSeconds float64 `json:"periodSeconds"`
	// Amplitude is the relative swing, in [0, 0.98] (see minThinningKeep).
	Amplitude float64 `json:"amplitude"`
	// PhaseSeconds shifts the curve (0 starts at the mean, rising).
	PhaseSeconds float64 `json:"phaseSeconds,omitempty"`
}

// maxMeanGapSeconds bounds a class's mean interarrival time 1/ratePerSec
// (some 30,000 years): beyond it a few heavy-tailed gaps sum past the
// largest float64 and the arrival clock reads +Inf.
const maxMeanGapSeconds = 1e12

// minThinningKeep (a probability) is the least share of candidates thinning
// may keep at the trough of the curve, (1−Amplitude)/(1+Amplitude): the
// generator draws 1/keep candidates per trough arrival, and an amplitude
// approaching 1 never produces one. 0.01 admits amplitudes up to 0.98.
const minThinningKeep = 0.01

// factor returns the modulation multiplier at time t, in
// [1−Amplitude, 1+Amplitude].
func (d *Diurnal) factor(t float64) float64 {
	f := 1 + d.Amplitude*sin2pi((t-d.PhaseSeconds)/d.PeriodSeconds)
	if math.IsNaN(f) {
		// The phase overflowed (a period next to zero, a phase next to the
		// float range): no curve is defined out there, and thinning would
		// compare against NaN forever.
		return 1
	}
	return f
}

// Validate reports whether the spec is usable.
func (s Spec) Validate() error {
	if len(s.Classes) == 0 {
		return errors.New("workload: spec has no classes")
	}
	seen := make(map[string]bool, len(s.Classes))
	for i, c := range s.Classes {
		if c.Name == "" {
			return fmt.Errorf("workload: class %d has no name", i)
		}
		if seen[c.Name] {
			return fmt.Errorf("workload: duplicate class name %q", c.Name)
		}
		seen[c.Name] = true
		if err := c.validate(); err != nil {
			return fmt.Errorf("workload: class %q: %w", c.Name, err)
		}
	}
	return nil
}

func (c Class) validate() error {
	switch c.Arrival.Process {
	case ProcessPoisson:
	case ProcessGamma, ProcessWeibull:
		if c.Arrival.Shape <= 0 {
			return fmt.Errorf("%s arrivals need a positive shape, got %v", c.Arrival.Process, c.Arrival.Shape)
		}
	default:
		return fmt.Errorf("unknown arrival process %q", c.Arrival.Process)
	}
	if c.Arrival.RatePerSec <= 0 {
		return fmt.Errorf("arrival rate %v must be positive", c.Arrival.RatePerSec)
	}
	if c.Arrival.RatePerSec*maxMeanGapSeconds < 1 {
		return fmt.Errorf("arrival rate %v is below one arrival in %v s: arrival instants would leave the float range",
			c.Arrival.RatePerSec, maxMeanGapSeconds)
	}
	switch c.Lifetime.Dist {
	case LifetimeExponential:
	case LifetimePareto:
		if c.Lifetime.Shape <= 1 {
			return fmt.Errorf("pareto lifetimes need tail index > 1 for a finite mean, got %v", c.Lifetime.Shape)
		}
	case LifetimeLognormal:
		if c.Lifetime.Shape <= 0 {
			return fmt.Errorf("lognormal lifetimes need a positive sigma, got %v", c.Lifetime.Shape)
		}
	default:
		return fmt.Errorf("unknown lifetime distribution %q", c.Lifetime.Dist)
	}
	if c.Lifetime.MeanSeconds <= 0 {
		return fmt.Errorf("mean lifetime %v must be positive", c.Lifetime.MeanSeconds)
	}
	if _, err := c.Source.Descriptor(); err != nil {
		return err
	}
	switch {
	case c.SLOMillis > 0:
		// Fixed SLO deadline; the range fields are ignored.
	case c.DeadlineMinMillis > 0 && units.AlmostGE(c.DeadlineMaxMillis, c.DeadlineMinMillis):
	default:
		return fmt.Errorf("need sloMillis > 0 or a deadline range, got slo=%v range=[%v, %v]",
			c.SLOMillis, c.DeadlineMinMillis, c.DeadlineMaxMillis)
	}
	if d := c.Diurnal; d != nil {
		if d.PeriodSeconds <= 0 {
			return fmt.Errorf("diurnal period %v must be positive", d.PeriodSeconds)
		}
		if d.Amplitude < 0 {
			return fmt.Errorf("diurnal amplitude %v must not be negative", d.Amplitude)
		}
		if keep := (1 - d.Amplitude) / (1 + d.Amplitude); !(keep >= minThinningKeep) {
			return fmt.Errorf("diurnal amplitude %v keeps a trough candidate with probability %.3g, below %v: thinning would spin",
				d.Amplitude, keep, minThinningKeep)
		}
	}
	// Whatever is accepted here, NewGenerator can build: the process
	// constructors derive a scale from rate and shape and refuse one that
	// under- or overflows (a Weibull shape of 0.001 needs Γ(1001)).
	_, _, err := c.gaps(des.NewRNG(0))
	return err
}

// Parse reads a spec from JSON, rejecting unknown fields.
func Parse(r io.Reader) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("workload: decoding: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Load reads a spec from a file.
func Load(path string) (Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, fmt.Errorf("workload: opening %s: %w", path, err)
	}
	defer f.Close()
	return Parse(f)
}

// Default returns a three-class workload spanning the distribution families:
// Poisson/exponential interactive traffic (the paper's own model), bursty
// Gamma/Pareto video, and near-periodic Weibull/lognormal bulk transfer with
// a diurnal load curve.
func Default() Spec {
	return Spec{
		Name: "default-mixed",
		Classes: []Class{
			{
				Name:      "voice",
				Arrival:   Arrival{Process: ProcessPoisson, RatePerSec: 0.5},
				Lifetime:  Lifetime{Dist: LifetimeExponential, MeanSeconds: 60},
				Source:    scenario.Source{Type: "periodic", C1Kbit: 8, P1Millis: 5},
				SLOMillis: 40,
			},
			{
				Name:              "video",
				Arrival:           Arrival{Process: ProcessGamma, RatePerSec: 0.3, Shape: 0.5},
				Lifetime:          Lifetime{Dist: LifetimePareto, MeanSeconds: 90, Shape: 2.5},
				Source:            scenario.Source{Type: "dualPeriodic", C1Kbit: 50, P1Millis: 10, C2Kbit: 10, P2Millis: 1},
				DeadlineMinMillis: 40, DeadlineMaxMillis: 70,
			},
			{
				Name:      "bulk",
				Arrival:   Arrival{Process: ProcessWeibull, RatePerSec: 0.2, Shape: 1.5},
				Lifetime:  Lifetime{Dist: LifetimeLognormal, MeanSeconds: 120, Shape: 0.8},
				Source:    scenario.Source{Type: "cbr", RateMbps: 2},
				SLOMillis: 70,
				Diurnal:   &Diurnal{PeriodSeconds: 1800, Amplitude: 0.5},
			},
		},
	}
}
