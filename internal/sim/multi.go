package sim

import (
	"fmt"
	"sort"

	"fafnet/internal/core"
	"fafnet/internal/des"
	"fafnet/internal/scenario"
	"fafnet/internal/stats"
	"fafnet/internal/topo"
	"fafnet/internal/units"
	"fafnet/internal/workload"
)

// MultiConfig parameterizes one multi-class run. Exactly one of Spec or
// Replay feeds the arrival stream: Spec generates it from the workload's
// random processes, Replay re-issues a previously recorded trace with no
// randomness at all.
type MultiConfig struct {
	// Topology describes the network (default: the paper's 3×4 network).
	Topology topo.Config
	// CAC configures the admission controller.
	CAC core.Options
	// Spec is the multi-class workload to generate from.
	Spec workload.Spec
	// Replay, when non-empty, replaces generation: the events are issued
	// exactly as recorded (same ids, endpoints, deadlines, lifetimes), which
	// reproduces the recording run bit-identically.
	Replay []workload.Event
	// Requests is the number of admission requests counted toward the
	// statistics in generating mode (default 200). Replay runs always issue
	// the whole trace.
	Requests int
	// Warmup is the number of initial requests excluded from statistics
	// (default 20). A replay must use the same warmup as its recording run
	// to reproduce the same statistics.
	Warmup int
	// Seed drives all randomness in generating mode: the per-class workload
	// streams and the endpoint selection. Ignored on replay.
	Seed int64
	// Record captures the issued requests as a trace in the result.
	Record bool
}

func (c MultiConfig) withDefaults() MultiConfig {
	if c.Topology.NumRings == 0 {
		c.Topology = topo.Default()
	}
	if c.Requests <= 0 {
		c.Requests = 200
	}
	if c.Warmup < 0 {
		c.Warmup = 0
	} else if c.Warmup == 0 {
		c.Warmup = 20
	}
	return c
}

// ClassResult carries one class's admission statistics.
type ClassResult struct {
	// Class is the workload class name.
	Class string
	// AP is the class admission probability over counted requests.
	AP stats.Ratio
	// Slack samples deadline − worst-case delay at admission for admitted
	// requests.
	Slack stats.Sample
	// Rejections counts rejection reasons over counted requests.
	Rejections map[string]int
}

// MultiResult summarizes one multi-class run.
type MultiResult struct {
	// Total is the admission probability over all counted requests.
	Total stats.Ratio
	// PerClass holds one entry per class that issued at least one counted
	// request, sorted by class name.
	PerClass []ClassResult
	// Jain is the Jain fairness index over the per-class admission
	// probabilities (1 = every class admitted at the same rate).
	Jain float64
	// Fingerprint hashes the full decision stream (id, arrival time,
	// verdict, allocations). Two runs are identical exactly when their
	// fingerprints match — this is what the record/replay gate asserts.
	Fingerprint uint64
	// Trace holds the issued requests when Record is set (warmup included),
	// ready for workload.WriteTrace.
	Trace []workload.Event
	// Admitted is the admitted-connection snapshot at the end of the run
	// (sorted by id) — the input the calibration harness hands to the
	// packet-level simulator.
	Admitted []*core.Connection
	// MeanActive is the time-averaged number of active connections.
	MeanActive float64
	// SkippedNoIdleHost counts arrivals dropped because every host already
	// originated a connection (generating mode only; they are never
	// recorded, so replays do not see them).
	SkippedNoIdleHost int
	// Duration is the simulated time span.
	Duration float64
}

// eventArrival is a trace event as the driver takes it.
func eventArrival(ev workload.Event) (arrival, bool, error) {
	spec, err := ev.Req.Spec()
	if err != nil {
		return arrival{}, false, fmt.Errorf("sim: request %s: %w", ev.Req.ID, err)
	}
	return arrival{spec: spec, class: ev.Class, event: ev}, true, nil
}

// replayFeed re-issues a recorded trace, event for event, with no randomness.
func replayFeed(events []workload.Event) feed {
	n := 0 // events handed out so far
	return feed{
		next: func(float64) (float64, bool) {
			if n == len(events) {
				return 0, false
			}
			n++
			return events[n-1].At, true
		},
		request:  func() (arrival, bool, error) { return eventArrival(events[n-1]) },
		lifetime: func() float64 { return events[n-1].LifetimeSeconds },
	}
}

// generatorFeed is RunMulti's generating stream: each arrival comes off the
// workload generator whole — time, class, deadline, lifetime, source, drawn
// from the class's own streams when the previous arrival has been handled —
// and only its endpoints are drawn, by d, when it fires.
func generatorFeed(gen *workload.Generator, d *driver) feed {
	var cur workload.ClassArrival
	seq := 0
	return feed{
		next: func(float64) (float64, bool) {
			cur = gen.Next()
			return cur.At, true
		},
		request: func() (arrival, bool, error) {
			// Arrivals finding no idle host are never recorded: a trace holds
			// issued requests only.
			src, dst, ok := d.pick(0)
			if !ok {
				return arrival{}, false, nil
			}
			seq++
			return eventArrival(workload.Event{
				At:              cur.At,
				Class:           cur.Class,
				LifetimeSeconds: cur.Lifetime,
				Req: scenario.Request{
					ID:             fmt.Sprintf("w%d", seq),
					SrcRing:        src.Ring,
					SrcHost:        src.Index,
					DstRing:        dst.Ring,
					DstHost:        dst.Index,
					DeadlineMillis: cur.Deadline / units.Millisecond,
					Source:         cur.Source,
				},
			})
		},
		lifetime: func() float64 { return cur.Lifetime },
	}
}

// RunMulti executes one multi-class admission simulation, either generating
// arrivals from cfg.Spec or replaying cfg.Replay.
func RunMulti(cfg MultiConfig) (MultiResult, error) {
	cfg = cfg.withDefaults()
	// The run's own RNG places the requests; the generator's classes draw
	// from strided seeds of their own.
	d, err := newDriver(cfg.Topology, cfg.CAC, des.NewRNG(cfg.Seed))
	if err != nil {
		return MultiResult{}, err
	}
	f := replayFeed(cfg.Replay)
	if len(cfg.Replay) == 0 {
		gen, err := workload.NewGenerator(cfg.Spec, cfg.Seed)
		if err != nil {
			return MultiResult{}, err
		}
		f, d.budget = generatorFeed(gen, d), cfg.Requests
	}

	var res MultiResult
	perClass := make(map[string]*tally)
	d.warmup = cfg.Warmup
	d.issued = func(a arrival, dec core.Decision, _ int, counted bool) {
		if cfg.Record {
			res.Trace = append(res.Trace, a.event)
		}
		if !counted {
			return
		}
		t := perClass[a.class]
		if t == nil {
			t = &tally{rejections: make(map[string]int)}
			perClass[a.class] = t
		}
		t.record(a.spec, dec)
		res.Total.Record(dec.Admitted)
	}
	if res.Duration, res.MeanActive, err = d.run(f); err != nil {
		return MultiResult{}, err
	}
	res.SkippedNoIdleHost = d.skipped
	res.Fingerprint = d.fp.Sum64()
	res.Admitted = d.ctl.Connections()

	names := make([]string, 0, len(perClass))
	for name := range perClass {
		names = append(names, name)
	}
	sort.Strings(names)
	aps := make([]float64, 0, len(names))
	for _, name := range names {
		t := perClass[name]
		res.PerClass = append(res.PerClass, ClassResult{
			Class:      name,
			AP:         t.ap,
			Slack:      t.slack,
			Rejections: t.rejections,
		})
		aps = append(aps, t.ap.Value())
	}
	res.Jain = stats.JainIndex(aps)
	return res, nil
}
