package main

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"fafnet/internal/core"
	"fafnet/internal/des"
	"fafnet/internal/scenario"
	"fafnet/internal/signaling"
	"fafnet/internal/topo"
	"fafnet/internal/units"
)

// workloadDef names one workload and how to build its fixture.
type workloadDef struct {
	name string
	// loop states the loop type and client count, printed with every run.
	loop string
	// checkpoint is how many ops the printed fingerprint covers. A time-bound
	// window never stops before it, and every pass of a traced run stops at
	// it.
	checkpoint int
	// slice is how many latency samples make one slice of a calibrated
	// window, about a tenth of a second of work: long enough that a slice's
	// mean counts slow decisions in full, short enough that a window holds a
	// hundred. The in-process workloads' slices are longer: a whole round on
	// figure7, whose nine points differ in cost by design, and four scenarios
	// on calibrate, where RandomSpec draws them severalfold apart in cost.
	slice int
	// open marks the open loop, whose throughput is its schedule's and is
	// read on the wall clock.
	open bool
	// setup builds the whole fixture and runs its unrecorded warm-up slice.
	setup func(e *env, traced bool) (instance, error)
}

// instance is one built fixture.
type instance interface {
	// measure runs ops until stop(done ops) reports true.
	measure(stop func(done int) bool, tr *tracer) (*windowResult, error)
	// verify runs the checks that follow the window and returns the ones
	// that failed.
	verify() []string
	close() error
}

// workloads lists the workloads in BENCHMARK.json's order.
var workloads = func() []*workloadDef {
	wire := func(name, loop string, checkpoint, slice int) *workloadDef {
		return &workloadDef{name: name, loop: loop, checkpoint: checkpoint, slice: slice,
			setup: func(e *env, traced bool) (instance, error) { return newWireFixture(e, name, traced) }}
	}
	open := wire("arrivals_open", "open loop, 1 connection, fixed rate 40/s, async audit on", 200, 8)
	open.open = true
	return []*workloadDef{
		wire("churn", "closed loop, 1 connection, async audit on", 500, 20),
		open,
		wire("preview", "closed loop, 1 connection, audit off", 100000, 4000),
		wire("preview_batch_audited", "closed loop, 1 connection, 512-member batches, async audit on", 300*batchMembers, 16),
		{name: "figure7", loop: "in-process, sequential sim.Run points",
			checkpoint: checkpointRounds * figure7Points * (fullSizes.pointRequests + fullSizes.pointWarmup), slice: figure7Points,
			setup: func(e *env, traced bool) (instance, error) { return newFigure7(e) }},
		{name: "calibrate", loop: "in-process, sequential sim.Calibrate scenarios", checkpoint: checkpointChunks * fullSizes.chunk, slice: 4,
			setup: func(e *env, traced bool) (instance, error) { return newCalibrate(e) }},
	}
}()

// workloadNamed returns the workload of that name, or nil.
func workloadNamed(name string) *workloadDef {
	for _, d := range workloads {
		if d.name == name {
			return d
		}
	}
	return nil
}

func workloadList() string {
	names := make([]string, len(workloads))
	for i, d := range workloads {
		names[i] = d.name
	}
	return strings.Join(names, ", ")
}

// sizes are the fixed work sizes of a run. The command uses fullSizes; the
// smoke test uses smokeSizes, about a fiftieth of the work, so that the same
// code paths finish in a second.
type sizes struct {
	// setups is how many times a run builds its whole fixture (network,
	// daemon, client, prefill, warm-up slice), so that setup_s is a median
	// and not one reading.
	setups int
	// Warm-up slice per set-up: the first few hundred decisions of a fresh
	// process run about a fifth slow (heap growth, cold caches), and the
	// set-ups' slices together get a process past that before the window
	// opens.
	warmupAdmits, warmupPreviews, warmupBatches int
	// figure7 point: counted and warm-up requests of one sim.Run.
	pointRequests, pointWarmup int
	// calibrate: scenarios per sim.Calibrate call and each scenario's size.
	chunk, scenarioRequests, scenarioWarmup int
	packetSeconds                           float64
	// Direct pass: admits of the in-process churn replays, and how long one
	// timed call is repeated for.
	directChurnOps int
	directBudget   time.Duration
}

var (
	fullSizes = sizes{
		setups:       5,
		warmupAdmits: 60, warmupPreviews: 4000, warmupBatches: 10,
		// Points are short so that a window holds several whole rounds; the
		// twelve-host grid reaches its steady standing set in a few arrivals.
		pointRequests: 24, pointWarmup: 8,
		// Many small scenarios, not sim.Calibrate's default size: RandomSpec
		// draws specs whose cost differs severalfold, and two dozen of them
		// in a window left every timing a quarter apart between seeds.
		chunk: 10, scenarioRequests: 10, scenarioWarmup: 2, packetSeconds: 0.05,
		directChurnOps: 100, directBudget: 40 * time.Millisecond,
	}
	smokeSizes = sizes{
		setups:       2,
		warmupAdmits: 4, warmupPreviews: 50, warmupBatches: 1,
		pointRequests: 3, pointWarmup: 1,
		chunk: 1, scenarioRequests: 6, scenarioWarmup: 2, packetSeconds: 0.02,
		directChurnOps: 6, directBudget: time.Millisecond,
	}
)

// audited says which wire workloads run with the async audit writer on.
// preview runs without it: its round trip is the bare fast path.
var audited = map[string]bool{
	"churn":                 true,
	"arrivals_open":         true,
	"preview":               false,
	"preview_batch_audited": true,
}

// fixture is one admission pipeline, the backend that reaches it (a client
// connection to a daemon, or the in-process layer-pass backend) and one op
// sequence with its warm-up slice already run.
type fixture struct {
	e      *env
	kind   string
	pipe   *core.Sharded
	b      backend
	onCall func(parent, seq int)
	audit  *auditFile
	start  scrape // registry at set-up, for the audit and ledger checks

	// A wire fixture owns a daemon and its client; the layer pass owns only
	// the audit file.
	d      *daemon
	client *signaling.Client

	// reference is a fixed preview asked of the empty network at set-up and
	// again after the final drain: equal answers mean every ring's
	// availability is back where it started.
	reference signaling.Decision

	churn    *churn
	arrivals *arrivals
	palette  *palette
	batches  *batches
	rng      *des.RNG // class draws of the preview workloads
}

// referenceRequest is the probe asked before the first admit and after the
// last release.
var referenceRequest = scenario.Request{
	ID: "reference", SrcRing: 0, SrcHost: 0, DstRing: 1, DstHost: 0,
	DeadlineMillis: 45, Source: paperSource,
}

// newWireFixture starts a daemon and dials the workload's one connection.
func newWireFixture(e *env, kind string, counted bool) (f *fixture, err error) {
	f = &fixture{e: e, kind: kind}
	if f.start, err = scrapeRegistry(); err != nil {
		return nil, err
	}
	if f.d, err = startDaemon(e.opts.out, audited[kind]); err != nil {
		return nil, err
	}
	f.pipe, f.audit = f.d.pipe, f.d.audit
	if f.client, err = f.d.dial(counted); err != nil {
		return nil, errors.Join(err, f.close())
	}
	f.b = f.client
	if err := f.prepare(); err != nil {
		return nil, errors.Join(err, f.close())
	}
	return f, nil
}

// newLayerFixture builds the same pipeline with no daemon around it and the
// layered backend in front: the layer pass of the traced run.
func newLayerFixture(e *env, kind string, tr *tracer) (f *fixture, err error) {
	f = &fixture{e: e, kind: kind}
	if f.start, err = scrapeRegistry(); err != nil {
		return nil, err
	}
	net0, err := topo.NewNetwork(defaultGrid)
	if err != nil {
		return nil, err
	}
	if f.pipe, err = core.NewSharded(net0, core.Options{}, 0); err != nil {
		return nil, err
	}
	l := &layered{pipe: f.pipe}
	if audited[kind] {
		if f.audit, err = openAuditFile(e.opts.out); err != nil {
			return nil, err
		}
		l.audit = f.audit.w
	}
	f.b, f.onCall = l, l.onCall
	if err := f.prepare(); err != nil {
		return nil, errors.Join(err, f.close())
	}
	// Spans start with the measured ops; the warm-up slice ran untraced.
	l.tr = tr
	return f, nil
}

// prepare asks the reference preview, builds the op sequence and runs its
// unrecorded warm-up slice.
func (f *fixture) prepare() (err error) {
	b := f.b
	if f.reference, err = b.Preview(referenceRequest); err != nil {
		return fmt.Errorf("reference preview: %w", err)
	}
	seed := f.e.opts.seed
	warm := newWindowResult(0, f.e.clock, 0)
	t := target{b: b, onCall: f.onCall}
	switch f.kind {
	case "churn":
		f.churn = newChurn(seed)
		f.churn.run(t, warm, func(done int) bool { return done >= f.e.sz.warmupAdmits })
	case "arrivals_open":
		f.arrivals = newArrivals(seed)
		f.arrivals.run(t, warm, func(done int) bool { return done >= f.e.sz.warmupAdmits }, false)
	case "preview", "preview_batch_audited":
		if f.palette, err = buildPalette(b, seed); err != nil {
			return err
		}
		f.rng = des.NewRNG(seed + 7919)
		if f.kind == "preview" {
			f.palette.previews(f.rng, t, warm, func(done int) bool { return done >= f.e.sz.warmupPreviews })
		} else {
			f.batches = f.palette.buildBatches(f.rng)
			f.palette.previewBatches(f.batches, t, warm, func(done int) bool { return done >= f.e.sz.warmupBatches*batchMembers })
		}
	}
	if warm.failed > 0 {
		return fmt.Errorf("warm-up slice: %s", strings.Join(warm.problems, "; "))
	}
	return nil
}

func (f *fixture) measure(stop func(done int) bool, tr *tracer) (*windowResult, error) {
	w := newWindowResult(f.e.def.checkpoint, f.e.clock, f.e.def.slice)
	t := target{b: f.b, tr: tr, onCall: f.onCall}
	switch f.kind {
	case "churn":
		f.churn.run(t, w, stop)
	case "arrivals_open":
		f.arrivals.run(t, w, stop, f.d != nil)
	case "preview":
		f.palette.previews(f.rng, t, w, stop)
	case "preview_batch_audited":
		f.palette.previewBatches(f.batches, t, w, stop)
	}
	if f.palette != nil {
		w.extra["core.standing_mean"] = float64(len(f.palette.active))
	}
	return w, nil
}

// report lists the admitted connections with their current worst-case
// delays: over the wire when there is one, else from the pipeline.
func (f *fixture) report() ([]signaling.ConnReport, error) {
	if f.client != nil {
		return f.client.Report()
	}
	delays, err := f.pipe.DelayReport()
	if err != nil {
		return nil, err
	}
	var out []signaling.ConnReport
	for _, c := range f.pipe.Connections() {
		out = append(out, signaling.ConnReport{ID: c.ID, DelayMillis: delays[c.ID] * 1e3, DeadlineMillis: c.Deadline * 1e3})
	}
	return out, nil
}

// verify is the end-of-run check list: a report op asserting every admitted
// connection's delay is within its deadline and that the daemon holds what
// the bench thinks it holds; a full drain; then an empty pipeline, a ring
// ledger back at its initial value, and an audit log that took every record.
func (f *fixture) verify() []string {
	var problems []string
	bad := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	b := f.b

	var held *standing
	switch {
	case f.churn != nil:
		held = &f.churn.standing
	case f.arrivals != nil:
		held = &f.arrivals.standing
	default:
		held = &f.palette.standing
	}
	rep, err := f.report()
	if err != nil {
		bad("report: %v", err)
	}
	if len(rep) != len(held.active) {
		bad("report lists %d connections, the bench holds %d", len(rep), len(held.active))
	}
	for _, r := range rep {
		if _, ok := held.active[r.ID]; !ok {
			bad("report lists %s, which the bench does not hold", r.ID)
		}
		if !(r.DelayMillis > 0) || !units.AlmostLE(r.DelayMillis, r.DeadlineMillis) {
			bad("report: %s has delay %v ms against deadline %v ms", r.ID, r.DelayMillis, r.DeadlineMillis)
		}
	}
	ids := append([]string(nil), held.order...)
	sort.Strings(ids)
	for _, id := range ids {
		if found, err := b.Release(id); err != nil || !found {
			bad("drain: release %s: found=%v err=%v", id, found, err)
		}
	}
	if n := f.pipe.Active(); n != 0 {
		bad("after the drain the pipeline still holds %d connections", n)
	}
	after, err := b.Preview(referenceRequest)
	switch {
	case err != nil:
		bad("reference preview after the drain: %v", err)
	case after.Admitted != f.reference.Admitted || after.HSMillis != f.reference.HSMillis || after.HRMillis != f.reference.HRMillis:
		bad("reference preview changed across the run: %+v, was %+v", after, f.reference)
	}
	if f.audit != nil {
		f.audit.w.Flush()
	}
	end, err := scrapeRegistry()
	if err != nil {
		bad("registry: %v", err)
		return problems
	}
	if v := end["fafnet_shard_allocated_fraction_max"]; !units.AlmostEq(v, 0) {
		bad("ring ledgers not back at their initial availability: allocated fraction %v", v)
	}
	d := delta(f.start, end)
	if v := d["fafnet_cac_bookkeeping_errors_total"]; v != 0 {
		bad("%v bookkeeping errors", v)
	}
	if f.d != nil && f.audit != nil {
		queued, written := d["fafnet_signaling_audit_records_total"], d["fafnet_audit_async_records_total"]
		if queued != written || d["fafnet_audit_async_errors_total"] != 0 || written == 0 {
			bad("audit log: %v records queued, %v written, %v errors", queued, written, d["fafnet_audit_async_errors_total"])
		}
	}
	return problems
}

func (f *fixture) close() error {
	var err error
	if f.client != nil {
		err = f.client.Close()
		f.client = nil
	}
	switch {
	case f.d != nil:
		err = errors.Join(err, f.d.stop())
		f.d = nil
	case f.audit != nil:
		err = errors.Join(err, f.audit.close())
	}
	f.audit = nil
	return err
}

// defaultGrid is the Section 6 evaluation network every workload runs on.
var defaultGrid = topo.Default()
