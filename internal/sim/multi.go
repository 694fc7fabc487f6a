package sim

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
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

// classAccum is the per-class accumulator keyed by class name during the
// run; it becomes a ClassResult afterwards.
type classAccum struct {
	ap         stats.Ratio
	slack      stats.Sample
	rejections map[string]int
}

// RunMulti executes one multi-class admission simulation, either generating
// arrivals from cfg.Spec or replaying cfg.Replay.
func RunMulti(cfg MultiConfig) (MultiResult, error) {
	cfg = cfg.withDefaults()
	replaying := len(cfg.Replay) > 0

	net, err := newNetwork(cfg.Topology)
	if err != nil {
		return MultiResult{}, err
	}
	ctl, err := core.NewController(net, cfg.CAC)
	if err != nil {
		return MultiResult{}, err
	}

	var gen *workload.Generator
	if !replaying {
		gen, err = workload.NewGenerator(cfg.Spec, cfg.Seed)
		if err != nil {
			return MultiResult{}, err
		}
	}

	rng := des.NewRNG(cfg.Seed) // endpoint selection; generator classes use strided seeds
	simulator := des.NewSimulator()
	hosts := net.Hosts()

	res := MultiResult{}
	perClass := make(map[string]*classAccum)
	cls := func(name string) *classAccum {
		a := perClass[name]
		if a == nil {
			a = &classAccum{rejections: make(map[string]int)}
			perClass[name] = a
		}
		return a
	}
	fp := fnv.New64a()

	total := 0
	counted := 0
	seq := 0
	activeSince := 0.0
	activeIntegral := 0.0
	active := 0
	noteActiveChange := func(now float64, delta int) {
		activeIntegral += float64(active) * (now - activeSince)
		activeSince = now
		active += delta
	}

	idle := make([]topo.HostID, 0, len(hosts))
	remote := make([]topo.HostID, 0, len(hosts))
	var fpBuf [8]byte

	fpWrite := func(bits uint64) {
		for i := range fpBuf {
			fpBuf[i] = byte(bits >> (8 * (7 - i)))
		}
		fp.Write(fpBuf[:])
	}

	// issue runs one admission request and its bookkeeping; shared verbatim
	// by the generating and replay paths so their decision streams are
	// computed by the same code.
	issue := func(ev workload.Event) error {
		now := simulator.Now()
		spec, err := ev.Req.Spec()
		if err != nil {
			return fmt.Errorf("sim: request %s: %w", ev.Req.ID, err)
		}
		dec, err := ctl.RequestAdmission(spec)
		if err != nil {
			return fmt.Errorf("sim: admission request %s: %w", ev.Req.ID, err)
		}

		fp.Write([]byte(ev.Req.ID))
		fpWrite(math.Float64bits(ev.At))
		if dec.Admitted {
			fpWrite(1)
		} else {
			fpWrite(0)
		}
		fpWrite(math.Float64bits(dec.HS))
		fpWrite(math.Float64bits(dec.HR))

		total++
		if total > cfg.Warmup {
			counted++
			a := cls(ev.Class)
			a.ap.Record(dec.Admitted)
			res.Total.Record(dec.Admitted)
			workload.RecordRequest(ev.Class)
			if dec.Admitted {
				a.slack.Add(spec.Deadline - dec.Delays[spec.ID])
				workload.RecordAdmission(ev.Class)
			} else {
				a.rejections[dec.Reason]++
			}
		}
		if dec.Admitted {
			noteActiveChange(now, +1)
			id := spec.ID
			if _, err := simulator.Schedule(ev.At+ev.LifetimeSeconds, func() {
				noteActiveChange(simulator.Now(), -1)
				if !ctl.Release(id) {
					// Exactly one departure is scheduled per admission, so a
					// miss here is a corrupted simulation, not a data point.
					panic("sim: departure event for unknown connection " + id)
				}
			}); err != nil {
				return fmt.Errorf("sim: scheduling departure: %w", err)
			}
		}
		if cfg.Record {
			res.Trace = append(res.Trace, ev)
		}
		return nil
	}

	var loopErr error
	fail := func(err error) {
		loopErr = err
		simulator.Halt()
	}

	if replaying {
		events := cfg.Replay
		var scheduleNext func(i int)
		scheduleNext = func(i int) {
			if i >= len(events) {
				return
			}
			if _, err := simulator.Schedule(events[i].At, func() {
				if loopErr != nil {
					return
				}
				if err := issue(events[i]); err != nil {
					fail(err)
					return
				}
				if i+1 >= len(events) {
					// The recording run halted inside its final arrival's
					// handler; halting here leaves the same departures
					// pending, so the admitted snapshot matches too.
					simulator.Halt()
					return
				}
				scheduleNext(i + 1)
			}); err != nil {
				fail(err)
			}
		}
		scheduleNext(0)
	} else {
		var scheduleNext func()
		scheduleNext = func() {
			arrival := gen.Next()
			if _, err := simulator.Schedule(arrival.At, func() {
				if loopErr != nil {
					return
				}
				// Source: uniform among hosts not currently originating a
				// connection. Arrivals finding none are dropped, not queued,
				// and never recorded — a trace holds issued requests only.
				idle = idle[:0]
				for _, h := range hosts {
					if !ctl.SourceBusy(h) {
						idle = append(idle, h)
					}
				}
				if len(idle) == 0 {
					res.SkippedNoIdleHost++
					scheduleNext()
					return
				}
				src := idle[rng.Intn(len(idle))]
				// Destination: uniform among hosts on other rings.
				remote = remote[:0]
				for _, h := range hosts {
					if h.Ring != src.Ring {
						remote = append(remote, h)
					}
				}
				dst := remote[rng.Intn(len(remote))]

				seq++
				ev := workload.Event{
					At:              arrival.At,
					Class:           arrival.Class,
					LifetimeSeconds: arrival.Lifetime,
					Req: scenario.Request{
						ID:             fmt.Sprintf("w%d", seq),
						SrcRing:        src.Ring,
						SrcHost:        src.Index,
						DstRing:        dst.Ring,
						DstHost:        dst.Index,
						DeadlineMillis: arrival.Deadline / units.Millisecond,
						Source:         arrival.Source,
					},
				}
				if err := issue(ev); err != nil {
					fail(err)
					return
				}
				if counted >= cfg.Requests {
					simulator.Halt()
					return
				}
				scheduleNext()
			}); err != nil {
				fail(err)
			}
		}
		scheduleNext()
	}

	simulator.Run(math.Inf(1))
	if loopErr != nil {
		return MultiResult{}, loopErr
	}
	if !replaying && counted < cfg.Requests {
		return MultiResult{}, errors.New("sim: simulation ended before reaching the request budget")
	}
	if total == 0 {
		return MultiResult{}, errors.New("sim: replay issued no requests")
	}

	res.Duration = simulator.Now()
	noteActiveChange(res.Duration, 0)
	if res.Duration > 0 {
		res.MeanActive = activeIntegral / res.Duration
	}
	res.Fingerprint = fp.Sum64()
	res.Admitted = ctl.Connections()

	names := make([]string, 0, len(perClass))
	for name := range perClass {
		names = append(names, name)
	}
	sort.Strings(names)
	aps := make([]float64, 0, len(names))
	for _, name := range names {
		a := perClass[name]
		res.PerClass = append(res.PerClass, ClassResult{
			Class:      name,
			AP:         a.ap,
			Slack:      a.slack,
			Rejections: a.rejections,
		})
		workload.SetClassAP(name, a.ap.Value())
		aps = append(aps, a.ap.Value())
	}
	res.Jain = stats.JainIndex(aps)
	workload.SetClassAP(workload.Overall, res.Total.Value())
	workload.SetJainFairness(res.Jain)
	return res, nil
}
