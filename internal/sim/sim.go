// Package sim reproduces the performance evaluation of Section 6: a
// stochastic admission-level simulation in which connection requests arrive
// as a Poisson process, sources are chosen among currently inactive hosts,
// routes always cross the ATM backbone, admitted connections hold their
// resources for exponentially distributed lifetimes, and the metric is the
// admission probability (AP).
//
// There is one event loop, driver: arrivals fire on a des.Simulator, each is
// put to the admission controller, an admitted connection departs after its
// holding time. Run (one source model, one RNG) and RunMulti (a multi-class
// workload generated, or a recorded trace replayed) are feeds of it — where
// the next arrival is, what it asks for, how long it holds — and differ in
// nothing else; sweeps, replications and the calibration gate are built on
// those two.
package sim

import (
	"fmt"

	"fafnet/internal/core"
	"fafnet/internal/des"
	"fafnet/internal/stats"
	"fafnet/internal/topo"
	"fafnet/internal/traffic"
	"fafnet/internal/units"
)

// The Section 6 workload (DESIGN.md §6) on topo.Default(): every connection
// is the dual-periodic source of Eq. 37, C1 = 50 kbit per P1 = 10 ms and
// C2 = 10 kbit per P2 = 1 ms at a 100 Mb/s peak, with no buffer limits; it
// holds for an exponential lifetime of mean 1/µ = 60 s, and its deadline is
// uniform in [30 ms, 70 ms]. The long-term rate ρ = C1/P1 = 5 Mb/s (Eq. 38)
// is sized so that a generous (β = 1) allocation for every active connection
// exhausts the rings' synchronous capacity right around the top of the
// offered-load sweep: at light loads every policy has room, at heavy loads
// the allocation policy decides who fits — the regime Figures 7–8 explore.
const (
	sourceC1      = 50e3
	sourceP1      = 10 * units.Millisecond
	sourceC2      = 10e3
	sourceP2      = units.Millisecond
	sourcePeakBps = 100e6
	sourceRho     = sourceC1 / sourceP1
	meanLifetime  = 60
	deadlineMin   = 30 * units.Millisecond
	deadlineMax   = 70 * units.Millisecond
)

// Config parameterizes one simulation run of the Section 6 experiment.
type Config struct {
	// CAC configures the admission controller (β, rule, search options).
	CAC core.Options
	// Utilization is U: the offered average load on one backbone link
	// relative to its reference capacity (see arrivalRate).
	Utilization float64
	// Requests is the number of admission requests counted toward the
	// statistics (default 400).
	Requests int
	// Warmup is the number of initial requests excluded (default 50; a
	// negative value excludes none).
	Warmup int
	// Seed drives all randomness; runs with equal seeds are identical.
	Seed int64
	// DestBias skews the traffic matrix: with this probability a request's
	// destination is drawn from ring 0 (the "hot" ring) rather than
	// uniformly from all remote rings. 0 keeps the paper's uniform matrix.
	// Asymmetric load is where the proportional allocation rule's balancing
	// argument (Section 5.3, Rule 2) is supposed to pay off.
	DestBias float64
}

func (c Config) withDefaults() Config {
	if c.Requests <= 0 {
		c.Requests = 400
	}
	if c.Warmup < 0 {
		c.Warmup = 0
	} else if c.Warmup == 0 {
		c.Warmup = 50
	}
	return c
}

// arrivalRate returns the Poisson rate λ = U·L·µ·C/ρ of the paper's
// offered-load formula U = λ/(L·µ)·ρ/C on the network t, with L the number
// of backbone links the load spreads over (the number of rings). C is a
// calibration substitution (DESIGN.md §6): the paper uses the raw 155 Mb/s
// link rate, but in an FDDI-edged network the carriable load saturates far
// below that, because the bottleneck is the rings' synchronous capacity,
// which every connection consumes at both its source and its destination
// (factor 1/2) with allocations above the bare stability floor (headroom
// factor 0.8). So C is the ring-limited per-link share
// NumRings·BW·(1 − Δ/TTRT)·0.4/L, and U sweeps the range where admission
// decisions actually bind.
func arrivalRate(u float64, t topo.Config) float64 {
	links := float64(t.NumRings)
	ring := t.Ring
	ringEffective := ring.BandwidthBps * (1 - ring.Overhead/ring.TTRT)
	capacity := float64(t.NumRings) * ringEffective * 0.4 / links
	mu := 1.0 / meanLifetime
	return u * links * mu * capacity / sourceRho
}

// Result summarizes one run.
type Result struct {
	// AP is the admission probability: admitted / counted requests.
	AP stats.Ratio
	// Rejections counts rejection reasons over counted requests.
	Rejections map[string]int
	// Probes samples the number of feasibility evaluations per request.
	Probes stats.Sample
	// ActiveAtArrival samples the number of active connections seen by each
	// counted request.
	ActiveAtArrival stats.Sample
	// SlackAtAdmission samples, for each admitted request, the gap between
	// its deadline and its worst-case delay at admission time — the margin
	// the β policy leaves against future disturbance.
	SlackAtAdmission stats.Sample
	// MeanActive is the time-averaged number of active connections.
	MeanActive float64
	// AchievedUtilization is the time-averaged per-link load actually
	// carried, relative to link capacity.
	AchievedUtilization float64
	// SkippedNoIdleHost counts Poisson arrivals dropped because every host
	// already originated a connection (they are not admission requests and
	// do not enter AP, matching the paper's source-selection rule).
	SkippedNoIdleHost int
	// Duration is the simulated time span.
	Duration float64
}

// Run executes one simulation and returns its statistics. Everything random
// comes from the run's single RNG, so the stream of a seed is fixed by the
// order of the draws: gap, source, bias, destination, deadline, and — after
// an admit only — lifetime.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Utilization <= 0 {
		return Result{}, fmt.Errorf("sim: utilization %v must be positive", cfg.Utilization)
	}
	t := topo.Default()
	rng := des.NewRNG(cfg.Seed)
	d, err := newDriver(t, cfg.CAC, rng)
	if err != nil {
		return Result{}, err
	}
	source, err := traffic.NewDualPeriodic(sourceC1, sourceP1, sourceC2, sourceP2, sourcePeakBps)
	if err != nil {
		return Result{}, err
	}
	arrivals, err := des.NewPoissonProcess(rng, arrivalRate(cfg.Utilization, t))
	if err != nil {
		return Result{}, err
	}

	var res Result
	all := tally{rejections: make(map[string]int)}
	d.warmup, d.budget = cfg.Warmup, cfg.Requests
	d.issued = func(a arrival, dec core.Decision, activeBefore int, counted bool) {
		if counted {
			all.record(a.spec, dec)
			res.Probes.Add(float64(dec.Probes))
			res.ActiveAtArrival.Add(float64(activeBefore))
		}
	}
	seq := 0
	res.Duration, res.MeanActive, err = d.run(feed{
		next: func(now float64) (float64, bool) { return now + arrivals.Next(), true },
		request: func() (arrival, bool, error) {
			src, dst, ok := d.pick(cfg.DestBias)
			if !ok {
				return arrival{}, false, nil
			}
			seq++
			return arrival{spec: core.ConnSpec{
				ID:       fmt.Sprintf("m%d", seq),
				Src:      src,
				Dst:      dst,
				Source:   source,
				Deadline: rng.Uniform(deadlineMin, deadlineMax),
			}}, true, nil
		},
		lifetime: func() float64 { return rng.Exp(meanLifetime) },
	})
	if err != nil {
		return Result{}, err
	}
	res.AP, res.SlackAtAdmission, res.Rejections = all.ap, all.slack, all.rejections
	res.SkippedNoIdleHost = d.skipped
	res.AchievedUtilization = res.MeanActive * sourceRho /
		(float64(t.NumRings) * t.LinkBps)
	return res, nil
}
