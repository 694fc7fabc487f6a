package main

import (
	"fmt"
	"math"
	"time"

	"fafnet/internal/core"
	"fafnet/internal/sim"
)

// Figure 7 grid: the paper's own experiment (AP against β at three loads)
// on the serialized Controller path, with no wire. Each point is one
// sim.Run; a round is the nine points, each under its own seed.
var (
	figure7Loads = []float64{0.3, 0.6, 0.9}
	figure7Betas = []float64{0, 0.5, 1}
)

const figure7Points = 9

// Checkpoints of the in-process workloads: whole rounds of figure7, whole
// sim.Calibrate calls of calibrate.
const (
	checkpointRounds = 2
	checkpointChunks = 3
)

func figure7PointName(u, beta float64) string {
	return fmt.Sprintf("sim.point_ms.u%.1f_b%.1f", u, beta)
}

// figure7 is the in-process sim.Run workload.
type figure7 struct {
	seed  int64
	sz    sizes
	clock *hostClock
	slice int
	round int
}

func newFigure7(e *env) (*figure7, error) {
	f := &figure7{seed: e.opts.seed, sz: e.sz, clock: e.clock, slice: e.def.slice}
	// Warm-up slice: one mid-grid point, under the same seed whatever -seed
	// is, so that set-up does the same work in every run.
	warm := f.config(0.6, 0.5, 0)
	warm.Seed = warmupSeed
	if _, err := sim.Run(warm); err != nil {
		return nil, err
	}
	return f, nil
}

// warmupSeed seeds the in-process workloads' warm-up slices.
const warmupSeed = 20260929

func (f *figure7) config(u, beta float64, seq int64) sim.Config {
	return sim.Config{
		Utilization: u,
		Requests:    f.sz.pointRequests,
		Warmup:      f.sz.pointWarmup,
		Seed:        f.seed*1_000_003 + seq,
		CAC:         core.Options{Beta: beta, BetaSet: true},
	}
}

func (f *figure7) measure(stop func(done int) bool, tr *tracer) (*windowResult, error) {
	w := newWindowResult(checkpointRounds*figure7Points, f.clock, f.slice)
	perPoint := f.sz.pointRequests + f.sz.pointWarmup
	pointNS := make(map[string]int64)
	var admitted, counted int
	var probes, active float64
	rounds := 0
	// A window ends on a round boundary only, so every operating point
	// weighs the same in the throughput and in the pooled AP.
	for !stop(w.ops) {
		for ui, u := range figure7Loads {
			for bi, beta := range figure7Betas {
				seq := int64(f.round*figure7Points + ui*len(figure7Betas) + bi)
				name := figure7PointName(u, beta)
				w.attempted += perPoint
				sp := tr.begin(0, int(seq), "sim", name)
				t0 := time.Now()
				res, err := sim.Run(f.config(u, beta, seq))
				lat := time.Since(t0)
				tr.end(sp)
				w.ops += perPoint
				if err != nil {
					w.failed += perPoint - 1
					w.fail("%s round %d: %v", name, f.round, err)
					continue
				}
				if res.AP.Trials() != f.sz.pointRequests {
					w.fail("%s round %d: counted %d requests, want %d", name, f.round, res.AP.Trials(), f.sz.pointRequests)
				}
				w.fp.add(fmt.Sprintf("%s#%d:%d", name, seq, res.AP.Successes()), true,
					res.MeanActive, res.SlackAtAdmission.Mean())
				pointNS[name] += int64(lat)
				admitted += res.AP.Successes()
				counted += res.AP.Trials()
				probes += res.Probes.Mean() * float64(res.Probes.N())
				active += res.MeanActive
				w.observe(lat.Seconds()/float64(perPoint), false)
			}
		}
		f.round++
		rounds++
	}
	for name, ns := range pointNS {
		w.extra[name] = float64(ns) / 1e6 / float64(rounds)
	}
	w.extra["sim.admission_probability"] = ratio(float64(admitted), float64(counted))
	w.extra["sim.probes_per_request"] = ratio(probes, float64(counted))
	w.extra["sim.mean_active"] = ratio(active, float64(rounds*figure7Points))
	return w, nil
}

func (f *figure7) verify() []string { return nil }
func (f *figure7) close() error     { return nil }

// calibrate is the in-process sim.Calibrate workload: workload.RandomSpec →
// RunMulti record → trace replay → packetsim sweep against Eq. 7 bounds.
// sim.Calibrate cannot be stopped part-way, so the window runs it a few
// scenarios at a time and reads per-scenario times from its Progress
// callback.
type calibrate struct {
	seed  int64
	sz    sizes
	clock *hostClock
	slice int
	chunk int
}

func newCalibrate(e *env) (*calibrate, error) {
	c := &calibrate{seed: e.opts.seed, sz: e.sz, clock: e.clock, slice: e.def.slice}
	// Warm-up slice: a few scenarios under a fixed seed (see newFigure7).
	cfg := c.config(0)
	cfg.Seed = warmupSeed
	cfg.Scenarios = min(3, c.sz.chunk)
	if _, err := sim.Calibrate(cfg); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *calibrate) config(chunk int64) sim.CalibrateConfig {
	return sim.CalibrateConfig{
		Scenarios:      c.sz.chunk,
		Seed:           c.seed*1_000_003 + chunk*15_485_863,
		Requests:       c.sz.scenarioRequests,
		Warmup:         c.sz.scenarioWarmup,
		PacketDuration: c.sz.packetSeconds,
	}
}

func (c *calibrate) measure(stop func(done int) bool, tr *tracer) (*windowResult, error) {
	w := newWindowResult(checkpointChunks*fullSizes.chunk, c.clock, c.slice)
	var admitted int
	var worst float64
	for !stop(w.ops) {
		cfg := c.config(int64(c.chunk))
		last := time.Now()
		sp := tr.begin(0, c.chunk, "sim", "calibrate.scenario")
		done0 := w.ops
		cfg.Progress = func(out sim.ScenarioOutcome) {
			lat := time.Since(last)
			tr.end(sp)
			w.ops++
			w.fp.add(fmt.Sprintf("s%d:%d:%d:%d:%v", out.Seed, out.Admitted, out.Measured, out.Violations, out.ReplayMatch),
				out.Violations == 0 && out.ReplayMatch, out.WorstTightness, float64(out.Classes))
			if out.Violations > 0 || !out.ReplayMatch {
				w.fail("scenario seed %d: %d bound violations, replay match %v", out.Seed, out.Violations, out.ReplayMatch)
			}
			admitted += out.Admitted
			worst = math.Max(worst, out.WorstTightness)
			w.observe(lat.Seconds(), false)
			last = time.Now()
			if w.ops < done0+c.sz.chunk {
				sp = tr.begin(0, c.chunk, "sim", "calibrate.scenario")
			}
		}
		w.attempted += c.sz.chunk
		if _, err := sim.Calibrate(cfg); err != nil {
			w.ops = done0 + c.sz.chunk
			w.fail("chunk %d: %v", c.chunk, err)
		}
		c.chunk++
	}
	w.extra["sim.worst_tightness"] = worst
	w.extra["sim.calibrate_admitted"] = ratio(float64(admitted), float64(w.ops))
	return w, nil
}

func (c *calibrate) verify() []string { return nil }
func (c *calibrate) close() error     { return nil }
