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

// SourceParams is the dual-periodic source model of Eq. 37.
type SourceParams struct {
	C1, P1  float64 // long-period contract: C1 bits per P1 seconds
	C2, P2  float64 // short-period contract: C2 bits per P2 seconds
	PeakBps float64 // instantaneous rate while transmitting
}

// Descriptor builds the traffic descriptor for these parameters.
func (s SourceParams) Descriptor() (traffic.Descriptor, error) {
	return traffic.NewDualPeriodic(s.C1, s.P1, s.C2, s.P2, s.PeakBps)
}

// Rho returns the long-term rate ρ = C1/P1 (Eq. 38).
func (s SourceParams) Rho() float64 { return s.C1 / s.P1 }

// Workload describes the stochastic request process.
type Workload struct {
	// Source parameterizes every connection's traffic.
	Source SourceParams
	// MeanLifetime is 1/µ: the mean holding time of an admitted connection.
	MeanLifetime float64
	// DeadlineMin and DeadlineMax bound the uniformly drawn deadlines.
	DeadlineMin, DeadlineMax float64
	// HostBufferBits and IDBufferBits are per-connection buffer limits
	// (0 = unlimited).
	HostBufferBits, IDBufferBits float64
}

// DefaultWorkload returns the constants recorded in DESIGN.md. The long-term
// rate ρ = 5 Mb/s is sized so that a generous (β = 1) allocation for every
// active connection exhausts the rings' synchronous capacity right around
// the top of the offered-load sweep: at light loads every policy has room,
// at heavy loads the allocation policy decides who fits — the regime
// Figures 7–8 explore.
func DefaultWorkload() Workload {
	return Workload{
		Source:       SourceParams{C1: 50e3, P1: 10 * units.Millisecond, C2: 10e3, P2: units.Millisecond, PeakBps: 100e6},
		MeanLifetime: 60,
		DeadlineMin:  30 * units.Millisecond,
		DeadlineMax:  70 * units.Millisecond,
	}
}

// Validate reports whether the workload is usable.
func (w Workload) Validate() error {
	if _, err := w.Source.Descriptor(); err != nil {
		return err
	}
	if w.MeanLifetime <= 0 {
		return fmt.Errorf("sim: mean lifetime %v must be positive", w.MeanLifetime)
	}
	if w.DeadlineMin <= 0 || w.DeadlineMax < w.DeadlineMin {
		return fmt.Errorf("sim: deadline range [%v, %v] invalid", w.DeadlineMin, w.DeadlineMax)
	}
	return nil
}

// Config parameterizes one simulation run.
type Config struct {
	// Topology describes the network (default: the paper's 3×4 network).
	Topology topo.Config
	// Workload describes sources, lifetimes and deadlines.
	Workload Workload
	// CAC configures the admission controller (β, rule, search options).
	CAC core.Options
	// Utilization is U: the offered average load on one backbone link
	// relative to link capacity. The arrival rate follows the paper's
	// formula U = λ/(LinkShare·µ) · ρ / C_link.
	Utilization float64
	// LinkShare is the divisor in the λ formula (the paper uses 3, the
	// number of backbone links the load spreads over). 0 selects the
	// number of rings.
	LinkShare float64
	// CapacityBps is the reference capacity C in the offered-load formula
	// U = λ/(LinkShare·µ) · ρ/C. The paper uses the raw 155 Mb/s link rate,
	// but in an FDDI-edged network the carriable load saturates far below
	// that: the bottleneck is the rings' synchronous capacity, which every
	// connection consumes at both its source and its destination. 0 selects
	// the ring-limited per-link share,
	// NumRings · BW·(1 − Δ/TTRT) / 2 / LinkShare,
	// so that U sweeps the range where admission decisions actually bind
	// (recorded as a calibration substitution in DESIGN.md).
	CapacityBps float64
	// Requests is the number of admission requests counted toward the
	// statistics (default 400).
	Requests int
	// Warmup is the number of initial requests excluded (default 50).
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
	if c.Topology.NumRings == 0 {
		c.Topology = topo.Default()
	}
	if c.Workload.MeanLifetime == 0 && c.Workload.Source == (SourceParams{}) {
		c.Workload = DefaultWorkload()
	}
	if c.LinkShare <= 0 {
		c.LinkShare = float64(c.Topology.NumRings)
	}
	if c.CapacityBps <= 0 {
		// Ring-limited reference: each connection consumes synchronous
		// bandwidth on two rings (factor 1/2), and allocations sit above
		// the bare stability floor (headroom factor 0.8).
		ring := c.Topology.Ring
		ringEffective := ring.BandwidthBps * (1 - ring.Overhead/ring.TTRT)
		c.CapacityBps = float64(c.Topology.NumRings) * ringEffective * 0.4 / c.LinkShare
	}
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

// ArrivalRate returns λ derived from the offered utilization:
// λ = U · LinkShare · µ · C / ρ with C the reference capacity.
func (c Config) ArrivalRate() float64 {
	mu := 1 / c.Workload.MeanLifetime
	return c.Utilization * c.LinkShare * mu * c.CapacityBps / c.Workload.Source.Rho()
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
	if err := cfg.Workload.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.Utilization <= 0 {
		return Result{}, fmt.Errorf("sim: utilization %v must be positive", cfg.Utilization)
	}
	rng := des.NewRNG(cfg.Seed)
	d, err := newDriver(cfg.Topology, cfg.CAC, rng)
	if err != nil {
		return Result{}, err
	}
	source, err := cfg.Workload.Source.Descriptor()
	if err != nil {
		return Result{}, err
	}
	arrivals, err := des.NewPoissonProcess(rng, cfg.ArrivalRate())
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
				ID:             fmt.Sprintf("m%d", seq),
				Src:            src,
				Dst:            dst,
				Source:         source,
				Deadline:       rng.Uniform(cfg.Workload.DeadlineMin, cfg.Workload.DeadlineMax),
				HostBufferBits: cfg.Workload.HostBufferBits,
				IDBufferBits:   cfg.Workload.IDBufferBits,
			}}, true, nil
		},
		lifetime: func() float64 { return rng.Exp(cfg.Workload.MeanLifetime) },
	})
	if err != nil {
		return Result{}, err
	}
	res.AP, res.SlackAtAdmission, res.Rejections = all.ap, all.slack, all.rejections
	res.SkippedNoIdleHost = d.skipped
	res.AchievedUtilization = res.MeanActive * cfg.Workload.Source.Rho() /
		(cfg.LinkShare * cfg.Topology.LinkBps)
	return res, nil
}
