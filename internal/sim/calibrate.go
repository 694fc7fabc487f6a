package sim

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"fafnet/internal/core"
	"fafnet/internal/des"
	"fafnet/internal/packetsim"
	"fafnet/internal/stats"
	"fafnet/internal/topo"
	"fafnet/internal/workload"
)

// CalibrateConfig parameterizes the calibration sweep: a sequence of
// randomized multi-class scenarios, each admitted by the controller and then
// cross-checked by the packet-level simulator against the analytic Eq. 7
// bounds.
type CalibrateConfig struct {
	// Topology describes the network (default: the paper's evaluation
	// network). The same topology feeds admission and the packet simulator.
	Topology topo.Config
	// CAC configures the admission controller.
	CAC core.Options
	// Scenarios is the number of randomized scenarios to run (default 100).
	Scenarios int
	// Seed derives every scenario's workload spec and simulation seeds;
	// the sweep is deterministic in it.
	Seed int64
	// Requests is the admission-request budget per scenario (default 40).
	Requests int
	// Warmup is the per-scenario warmup excluded from admission statistics
	// (default 10).
	Warmup int
	// PacketDuration is the packet-level simulated span per scenario in
	// seconds (default 0.25 — tens of token rotations and deadline windows).
	PacketDuration float64
	// Progress, when non-nil, is called after each scenario completes.
	Progress func(ScenarioOutcome)
}

func (c CalibrateConfig) withDefaults() CalibrateConfig {
	if c.Topology.NumRings == 0 {
		c.Topology = topo.Default()
	}
	if c.Scenarios <= 0 {
		c.Scenarios = 100
	}
	if c.Requests <= 0 {
		c.Requests = 40
	}
	if c.Warmup <= 0 {
		c.Warmup = 10
	}
	if c.PacketDuration <= 0 {
		c.PacketDuration = 0.25
	}
	return c
}

// ScenarioOutcome summarizes one calibration scenario.
type ScenarioOutcome struct {
	// Index is the scenario's position in the sweep.
	Index int
	// Seed is the scenario's derived seed (reproduces it in isolation).
	Seed int64
	// Classes is the number of workload classes in the drawn spec.
	Classes int
	// Admitted is the size of the admitted-connection snapshot handed to the
	// packet simulator.
	Admitted int
	// Measured counts admitted connections that delivered at least one frame
	// during the packet run (only these contribute tightness samples).
	Measured int
	// Violations counts measured delays above the analytic bound. Any
	// nonzero value is a soundness failure.
	Violations int
	// WorstTightness is the scenario's maximum measured/bound delay ratio
	// (0 when nothing was measured).
	WorstTightness float64
	// ReplayMatch reports whether replaying the recorded trace reproduced
	// the recording's decision-stream fingerprint bit-for-bit.
	ReplayMatch bool
}

// ClassCalibration aggregates bound-tightness statistics for one workload
// class across the whole sweep.
type ClassCalibration struct {
	// Class is the workload class name.
	Class string
	// AP pools the class's admission counts over every scenario; its CI95 is
	// the Wilson interval the calibration report prints.
	AP stats.Ratio
	// Connections counts measured connections of this class.
	Connections int
	// WorstTightness is the maximum measured/bound delay ratio.
	WorstTightness float64
	// MAPE is the mean absolute percentage error of the analytic bound
	// against the measured maximum delay — how conservative the bound is.
	MAPE float64
	// Pearson is the correlation between analytic bounds and measured
	// maximum delays — whether the bound tracks the measurement.
	Pearson float64
}

// CalibrateResult is the outcome of a calibration sweep.
type CalibrateResult struct {
	// Scenarios holds one outcome per scenario, in sweep order.
	Scenarios []ScenarioOutcome
	// PerClass aggregates tightness per workload class, sorted by name.
	PerClass []ClassCalibration
	// Overall aggregates tightness over every measured connection, under
	// the class name "overall".
	Overall ClassCalibration
	// Violations totals measured-delay bound violations across the sweep.
	// The calibration gate fails hard on any.
	Violations int
	// ReplayMismatches counts scenarios whose trace replay diverged from the
	// recording. Must be zero: same trace ⇒ bit-identical run.
	ReplayMismatches int
}

// Passed reports whether the sweep upheld both gate invariants: no measured
// delay above its analytic bound and no replay divergence.
func (r CalibrateResult) Passed() bool {
	return r.Violations == 0 && r.ReplayMismatches == 0
}

// classCal accumulates one class's admission counts and (bound, measured)
// pairs during the sweep.
type classCal struct {
	ap       stats.Ratio
	bounds   []float64
	measured []float64
	worst    float64
}

func (c *classCal) add(bound, measured float64) {
	c.bounds = append(c.bounds, bound)
	c.measured = append(c.measured, measured)
	if bound > 0 {
		if t := measured / bound; t > c.worst {
			c.worst = t
		}
	}
}

func (c *classCal) result(name string) (ClassCalibration, error) {
	mape, err := stats.MAPE(c.bounds, c.measured)
	if err != nil {
		return ClassCalibration{}, err
	}
	pearson, err := stats.Pearson(c.bounds, c.measured)
	if err != nil {
		return ClassCalibration{}, err
	}
	return ClassCalibration{
		Class:          name,
		AP:             c.ap,
		Connections:    len(c.bounds),
		WorstTightness: c.worst,
		MAPE:           mape,
		Pearson:        pearson,
	}, nil
}

// scenarioSeedStride separates per-scenario seeds far enough that the
// strided per-class generator seeds of adjacent scenarios cannot collide.
const scenarioSeedStride = 104729

// Calibrate runs the calibration sweep: for each scenario it draws a
// randomized multi-class workload spec, runs the admission simulation with
// trace recording, replays the trace and checks bit-identity, then feeds
// the admitted snapshot through the packet-level simulator and compares
// every measured delay against its analytic Eq. 7 bound.
func Calibrate(cfg CalibrateConfig) (CalibrateResult, error) {
	cfg = cfg.withDefaults()

	res := CalibrateResult{}
	perClass := make(map[string]*classCal)
	overall := &classCal{}
	cls := func(name string) *classCal {
		cc := perClass[name]
		if cc == nil {
			cc = &classCal{}
			perClass[name] = cc
		}
		return cc
	}

	for i := 0; i < cfg.Scenarios; i++ {
		seed := cfg.Seed + int64(i)*scenarioSeedStride
		spec := workload.RandomSpec(des.NewRNG(seed))

		mres, err := RunMulti(MultiConfig{
			Topology: cfg.Topology,
			CAC:      cfg.CAC,
			Spec:     spec,
			Requests: cfg.Requests,
			Warmup:   cfg.Warmup,
			Seed:     seed,
			Record:   true,
		})
		if err != nil {
			return res, fmt.Errorf("sim: calibration scenario %d (seed %d): %w", i, seed, err)
		}

		out := ScenarioOutcome{
			Index:    i,
			Seed:     seed,
			Classes:  len(spec.Classes),
			Admitted: len(mres.Admitted),
		}
		for _, cr := range mres.PerClass {
			cls(cr.Class).ap.Merge(cr.AP)
		}
		overall.ap.Merge(mres.Total)

		rep, err := RunMulti(MultiConfig{
			Topology: cfg.Topology,
			CAC:      cfg.CAC,
			Replay:   mres.Trace,
			Warmup:   cfg.Warmup,
		})
		if err != nil {
			return res, fmt.Errorf("sim: calibration scenario %d replay: %w", i, err)
		}
		out.ReplayMatch = rep.Fingerprint == mres.Fingerprint
		if !out.ReplayMatch {
			res.ReplayMismatches++
		}

		// Class of each admitted connection, recovered from the trace.
		classOf := make(map[string]string, len(mres.Trace))
		for _, ev := range mres.Trace {
			classOf[ev.Req.ID] = ev.Class
		}

		if len(mres.Admitted) > 0 {
			pres, err := packetsim.Run(packetsim.Config{
				Topology:    cfg.Topology,
				Connections: mres.Admitted,
				Duration:    cfg.PacketDuration,
				Seed:        seed,
			})
			if err != nil {
				return res, fmt.Errorf("sim: calibration scenario %d packet run: %w", i, err)
			}
			for _, c := range pres.PerConn {
				if !c.WithinBound() {
					out.Violations++
				}
				if c.Delays.N() == 0 {
					continue // idle over the window: no tightness sample
				}
				out.Measured++
				name := classOf[c.ID]
				if name == "" {
					return res, fmt.Errorf("sim: calibration scenario %d: connection %q missing from trace", i, c.ID)
				}
				cls(name).add(c.Bound, c.Delays.Max())
				overall.add(c.Bound, c.Delays.Max())
				if c.Bound > 0 {
					if t := c.Delays.Max() / c.Bound; t > out.WorstTightness {
						out.WorstTightness = t
					}
				}
			}
		}

		res.Violations += out.Violations
		res.Scenarios = append(res.Scenarios, out)
		if cfg.Progress != nil {
			cfg.Progress(out)
		}
	}

	if overall.worst == 0 && len(overall.bounds) == 0 {
		return res, errors.New("sim: calibration sweep measured no connections; raise -requests or the packet duration")
	}

	names := make([]string, 0, len(perClass))
	for name := range perClass {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cal, err := perClass[name].result(name)
		if err != nil {
			return res, err
		}
		res.PerClass = append(res.PerClass, cal)
	}
	var err error
	res.Overall, err = overall.result("overall")
	if err != nil {
		return res, err
	}

	// Guard against NaN leaking into the report (all-idle classes divide by
	// zero nowhere above, but MAPE over empty pairs is defined as 0; a NaN
	// here means an accounting bug, not a data point).
	if math.IsNaN(res.Overall.MAPE) || math.IsNaN(res.Overall.Pearson) {
		return res, errors.New("sim: calibration summary produced NaN")
	}
	return res, nil
}
