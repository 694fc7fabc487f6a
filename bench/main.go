// Command bench is the repository's one end-to-end benchmark (see
// BENCHMARK.json and bench/README.md). It drives the real admission stack
// from outside — an in-process signaling.Server over core.Sharded on
// loopback TCP for the four wire workloads, sim.Run and sim.Calibrate for
// the two experiment workloads — with op sequences that are a pure function
// of -seed, checks every output, and prints each metric by name.
//
// One run measures one workload:
//
//	go run ./bench -workload churn -seed 1 -seconds 16 -trace 0
//
// With -trace 0 it prints the end-to-end metrics, measured with tracing
// off. With -trace 1 it repeats a slice of the workload with bench-side
// spans on, replays the same ops in-process layer by layer, calls each
// layer's public functions directly, and prints the per-layer metrics and
// the reconciling budget. The last line of standard output is one JSON
// object {correct, attempted, failed, metrics}.
//
//	go run ./bench -all [-trace 1] -out DIR    every workload, one process each
//	go run ./bench -compare a.json b.json      apply BENCHMARK.json's bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// out receives the trace files, results.json and the temporary audit
	// logs. The default is relative to the working directory, so a run reads
	// and writes only inside its checkout; .gitignore names it.
	out string
	// ops, when positive, bounds every measured window by op count instead
	// of by seconds. No flag sets it: the smoke test does, to run each
	// workload at a fraction of its size with exactly repeating work.
	ops int
}

func main() {
	var o options
	var trace int
	var all, compare bool
	var runs int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+workloadList())
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs; equal seeds give equal inputs")
	flag.Float64Var(&o.seconds, "seconds", 16, "length of the end-to-end window in seconds (a traced run is bound by op count)")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.out, "out", ".bench_out", "directory for trace files, results.json and temporary audit logs")
	flag.BoolVar(&all, "all", false, "run every workload, each in a fresh process, and write results.json to -out")
	flag.IntVar(&runs, "runs", 1, "with -all: runs per workload, run k under seed+k")
	flag.BoolVar(&compare, "compare", false, "compare two results.json files (arguments) under BENCHMARK.json's bounds")
	flag.Parse()
	o.trace = trace != 0
	// One running thread: the sandbox's two vCPUs behave like one physical
	// core, and which goroutine lands on which decides the number otherwise
	// (bench/README.md, Findings 7 and 8).
	runtime.GOMAXPROCS(1)

	var err error
	switch {
	case compare:
		err = runCompare(flag.Args(), os.Stdout)
	case all:
		err = runAll(o, runs, os.Stdout)
	default:
		err = runOne(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// metricValue is one reported number with its unit, the shape BENCHMARK.json's
// contract fixes for the last output line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the last line of a run's standard output.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// errFailedChecks is returned when a run completed but an op failed or a
// correctness check did not hold; the result line is still printed.
var errFailedChecks = errors.New("correctness checks failed")

// runOne measures one workload and prints its metrics and result line.
func runOne(o options, w io.Writer) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	def := workloadNamed(o.workload)
	if def == nil {
		return fmt.Errorf("unknown -workload %q (want one of %s)", o.workload, workloadList())
	}
	if o.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	e := &env{opts: o, def: def, spec: spec, sz: fullSizes}
	var rep *report
	if o.trace {
		rep, err = e.runTraced()
	} else {
		rep, err = e.runUntraced()
	}
	if err != nil {
		return err
	}

	decls := spec.EndToEnd
	if o.trace {
		decls = spec.PerLayer
	}
	res := runResult{
		Correct:   rep.failed == 0 && len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue, len(decls)),
	}
	fmt.Fprintf(w, "# workload %s seed %d trace %v: %s\n", def.name, o.seed, o.trace, def.loop)
	fmt.Fprintf(w, "fingerprint %s %016x over the first %d decisions (%d in the window)\n",
		def.name, rep.fingerprint, rep.fingerprintOps, rep.ops)
	for _, d := range decls {
		v, ok := rep.metrics[d.Name]
		if !ok {
			return fmt.Errorf("workload %s did not produce metric %s", def.name, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "%-44s %14.6g %-6s (%s is better; n=%d)\n", d.Name, v, d.Unit, d.Better, rep.samples)
	}
	for name := range rep.metrics {
		if _, ok := res.Metrics[name]; !ok {
			return fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	for _, line := range rep.notes {
		fmt.Fprintln(w, line)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(w, "FAILED CHECK:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	if !res.Correct {
		return errFailedChecks
	}
	return nil
}

// report is what one run of one workload hands back to runOne.
type report struct {
	metrics        map[string]float64
	attempted      int
	failed         int
	ops            int
	samples        int
	fingerprint    uint64
	fingerprintOps int
	notes          []string
	problems       []string
}

// env carries one run's settings through set-up, the measured window and
// the checks that follow it.
type env struct {
	opts options
	def  *workloadDef
	spec *benchSpec
	sz   sizes
	// clock is the host clock of an end-to-end run; the fixtures built while
	// it is set read it and cut their windows into slices. A traced run's
	// passes leave it nil.
	clock *hostClock
}

// runUntraced is the end-to-end run: set up several times, measure one
// window with tracing off on the last fixture, then verify and tear down.
// Every time it reports is read on the calibrated clock (hostclock.go).
func (e *env) runUntraced() (*report, error) {
	clock := newHostClock()
	e.clock = clock
	var setups, rawSetups []float64
	var inst instance
	for i := 0; i < e.sz.setups; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		clock.sample()
		t0, spent0 := time.Now(), clock.spent
		var err error
		inst, err = e.def.setup(e, false)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", e.def.name, err)
		}
		t1 := time.Now()
		// The warm-up slice read the clock as it ran; that is not set-up time.
		raw := (t1.Sub(t0) - (clock.spent - spent0)).Seconds()
		clock.sample()
		setups = append(setups, raw*clock.speedOver(t0, t1))
		rawSetups = append(rawSetups, raw)
	}
	win, problems, err := e.passOn(inst, e.stopRule(), nil)
	if err != nil {
		return nil, err
	}

	setupNote := fmt.Sprintf("# set-ups in order, wall clock: %.3f s", rawSetups)
	sort.Float64s(setups)
	lats := sorted(win.lats)
	perOp, latency := win.sliceStats()
	rate := 1 / perOp
	if e.def.open {
		rate = float64(win.ops) / win.wall.Seconds()
	}
	rep := win.report(e.def)
	rep.problems = append(rep.problems, problems...)
	rep.metrics = map[string]float64{
		"setup_s":               setups[len(setups)/2],
		"ops_per_s":             rate,
		"latency_chunk_mean_ms": latency * 1e3,
		"allocs_per_op":         float64(win.mallocs) / float64(win.ops),
	}
	speeds := sorted(clock.speed)
	rep.notes = append(rep.notes, setupNote,
		fmt.Sprintf("# host speed against the nominal machine: median %.3f, range %.3f to %.3f over %d readings of the reference kernel; %d slices",
			quantile(speeds, 0.5), speeds[0], speeds[len(speeds)-1], len(speeds), len(win.slices)),
		fmt.Sprintf("# on the wall clock: window %.3f s, %d ops (%.6g /s), %d latency samples, mean %.4g ms, p50 %.4g ms, p90 %.4g ms, p99 %.4g ms, max %.4g ms, %d releases, MemStats.Sys %.4g MB",
			win.wall.Seconds(), win.ops, float64(win.ops)/win.wall.Seconds(), len(lats), mean(lats)*1e3, quantile(lats, 0.50)*1e3,
			quantile(lats, 0.90)*1e3, quantile(lats, 0.99)*1e3, quantile(lats, 1)*1e3, win.releases, float64(win.sysBytes)/(1<<20)))
	return rep, nil
}

// sliceStats reads a calibrated window: the seconds one op takes and the
// mean latency, both on the calibrated clock. Each slice gives one value of
// either — its own mean, scaled by the host's speed beside it — and the
// result is the mean over the slices with the highest and the lowest tenth
// left out. A slice's value is a mean over its ops, so decisions that got
// slower, and on the open loop the queue they leave behind them, count in
// full in every slice. The trimming is for what the kernel cannot see: a
// freeze of the host that falls between two readings.
func (w *windowResult) sliceStats() (secondsPerOp, latency float64) {
	var perOp, lats []float64
	var prev timeSlice
	for _, s := range w.slices {
		speed := w.clock.speedOver(s.start, s.end)
		perOp = append(perOp, s.busy.Seconds()*speed/float64(s.ops-prev.ops))
		lats = append(lats, mean(w.lats[prev.lats:s.lats])*speed)
		prev = s
	}
	return trimmedMean(perOp), trimmedMean(lats)
}

// trimmedMean is the mean of a sample without its highest and its lowest
// tenth (of fewer than ten values, the plain mean).
func trimmedMean(xs []float64) float64 {
	s := sorted(xs)
	trim := len(s) / 10
	return mean(s[trim : len(s)-trim])
}

// stopRule returns the predicate that ends the untraced window: once
// -seconds have passed, but never before the fingerprint checkpoint, so the
// printed fingerprint covers the same decisions on a slow host as on a fast
// one. The smoke test binds the window by op count instead.
func (e *env) stopRule() func(done int) bool {
	if e.opts.ops > 0 {
		return countStop(e.opts.ops)
	}
	deadline := time.Now().Add(time.Duration(e.opts.seconds * float64(time.Second)))
	checkpoint := e.def.checkpoint
	return func(done int) bool { return done >= checkpoint && !time.Now().Before(deadline) }
}

// window runs one measured window on a fixture and adds what only the
// process can tell: wall time and allocation count.
func (e *env) window(inst instance, stop func(int) bool, tr *tracer) (*windowResult, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	win, err := inst.measure(stop, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.def.name, err)
	}
	win.wall = time.Since(t0)
	win.closeSlice()
	runtime.ReadMemStats(&after)
	win.mallocs = after.Mallocs - before.Mallocs
	win.gcCycles = after.NumGC - before.NumGC
	win.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	win.sysBytes = after.Sys
	if win.ops == 0 {
		return nil, fmt.Errorf("%s: the window completed no op", e.def.name)
	}
	return win, nil
}

// quantile returns the q-quantile of an ascending sample by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// mean returns the arithmetic mean, 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// benchSpec mirrors BENCHMARK.json.
type benchSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []nameWhy    `json:"workloads"`
	EndToEnd   []metricDecl `json:"end_to_end"`
	PerLayer   []metricDecl `json:"per_layer"`
}

type nameWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the working directory or, for the
// tests that run inside bench/, from its parent.
func loadSpec() (*benchSpec, error) {
	var raw []byte
	var err error
	for _, dir := range []string{".", ".."} {
		raw, err = os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w (run from the repository root)", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}
