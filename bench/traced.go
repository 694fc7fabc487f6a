package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
)

// A traced run makes three passes over the head of the workload's own seeded
// op sequence — a reference slice with tracing off, the same ops again with
// spans on and the registry read on both sides, and (for the wire
// workloads) the same ops once more in-process, one span per layer — and
// then calls every layer directly. Every pass is bound by op count, the
// workload's checkpoint, not by -seconds: the work a traced run does, and so
// every count it reports, is then a function of the seed alone and repeats
// exactly. The checkpoints are sized for about twelve seconds a run on the
// builder's machine.

// layerPassCap bounds the ops the in-process replay repeats: at seven spans
// a request, the cache-hit workloads would otherwise fill memory with spans.
const layerPassCap = 20000

// mainOp is the wire op a workload is about; decisionsPerOp is how many
// decisions one such request carries.
var mainOp = map[string]struct {
	op             string
	decisionsPerOp float64
}{
	"churn":                 {"admit", 1},
	"arrivals_open":         {"admit", 1},
	"preview":               {"preview", 1},
	"preview_batch_audited": {"previewBatch", batchMembers},
}

func countStop(n int) func(done int) bool {
	return func(done int) bool { return done >= n }
}

// onlyOn names the per-layer metrics that only some workloads have a value
// for. A workload outside a metric's list reports it as 0, "does not apply";
// every other declared metric has to be written by one of the passes, or
// runOne fails the run for not producing it.
func onlyOn() map[string][]string {
	wire := []string{"churn", "arrivals_open", "preview", "preview_batch_audited"}
	probing := []string{"churn", "arrivals_open", "figure7", "calibrate"}
	m := map[string][]string{
		"signaling.op_us":              wire,
		"signaling.transport_us":       wire,
		"signaling.dispatch_us":        wire,
		"signaling.request_bytes":      wire,
		"signaling.response_bytes":     wire,
		"bench.budget_gap_frac":        wire,
		"core.standing_mean":           wire,
		"core.release_us":              {"churn"},
		"bench.late_frac":              {"arrivals_open"},
		"bench.gen_lag_max_ms":         {"arrivals_open"},
		"bench.probe_unexplained_frac": probing,
		"sim.admission_probability":    {"figure7"},
		"sim.probes_per_request":       {"figure7"},
		"sim.mean_active":              {"figure7"},
		"sim.worst_tightness":          {"calibrate"},
		"sim.calibrate_admitted":       {"calibrate"},
	}
	for _, u := range figure7Loads {
		for _, beta := range figure7Betas {
			m[figure7PointName(u, beta)] = []string{"figure7"}
		}
	}
	return m
}

// runTraced produces every per-layer metric of one workload.
func (e *env) runTraced() (*report, error) {
	def := e.def
	m := make(map[string]float64, len(e.spec.PerLayer))
	tr := newTracer(def.name)
	// The per-layer times are wall-clock times. The host clock is read
	// between the passes, so that a reader can tell a slow layer from a slow
	// host (bench.host_speed).
	clock := newHostClock()
	clock.sample()

	// Pass 1: the reference slice, tracing off.
	instA, err := e.def.setup(e, false)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", def.name, err)
	}
	ops := def.checkpoint
	if e.opts.ops > 0 {
		ops = e.opts.ops
	}
	winA, problems, err := e.passOn(instA, countStop(ops), nil)
	if err != nil {
		return nil, err
	}
	latsA := sorted(winA.lats)
	meanA := mean(latsA)
	clock.sample()

	// Pass 2: the same ops on a fresh fixture, spans on, wire bytes counted,
	// the registry scraped on both sides of the window.
	instB, err := e.def.setup(e, true)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", def.name, err)
	}
	before, err := scrapeRegistry()
	if err != nil {
		return nil, errors.Join(err, instB.close())
	}
	var sent, received int64
	fixB, _ := instB.(*fixture)
	if fixB != nil {
		sent, received = fixB.d.sent.Load(), fixB.d.received.Load()
	}
	var reg scrape
	winB, problemsB, err := e.passOn(instB, countStop(winA.ops), tr, func() error {
		after, err := scrapeRegistry()
		reg = delta(before, after)
		if fixB != nil {
			sent, received = fixB.d.sent.Load()-sent, fixB.d.received.Load()-received
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	clock.sample()
	problems = append(problems, problemsB...)
	if a, b := winA.fp.checkpointSum(), winB.fp.checkpointSum(); a != b {
		problems = append(problems, fmt.Sprintf("decision fingerprint %016x untraced, %016x traced", a, b))
	}

	rep := winA.report(def)
	rep.attempted += winB.attempted
	rep.failed += winB.failed
	rep.problems = append(rep.problems, winB.problems...)
	rep.metrics = m

	for name, v := range winB.extra {
		m[name] = v
	}
	// Harness honesty numbers come from the untraced slice.
	for _, name := range []string{"bench.late_frac", "bench.gen_lag_max_ms"} {
		if v, ok := winA.extra[name]; ok {
			m[name] = v
		}
	}
	m["bench.latency_p50_ms"] = quantile(latsA, 0.50) * 1e3
	m["bench.latency_p90_ms"] = quantile(latsA, 0.90) * 1e3
	m["bench.latency_p99_ms"] = quantile(latsA, 0.99) * 1e3
	m["bench.mem_sys_mb"] = float64(winA.sysBytes) / (1 << 20)
	m["bench.gc_cycles"] = float64(winA.gcCycles)
	m["bench.gc_pause_total_ms"] = winA.gcPause.Seconds() * 1e3
	m["bench.trace_overhead_frac"] = ratio(mean(winB.lats)-meanA, meanA)
	registryMetrics(m, reg)

	if op, ok := mainOp[def.name]; ok {
		requests := reg.sum("fafnet_signaling_requests_total")
		m["signaling.request_bytes"] = ratio(float64(sent), requests)
		m["signaling.response_bytes"] = ratio(float64(received), requests)
		label := fmt.Sprintf("op=%q", op.op)
		m["signaling.op_us"] = 1e6 * ratio(reg.sum("fafnet_signaling_op_seconds_sum", label), reg.sum("fafnet_signaling_op_seconds_count", label))
		rtt, _ := tr.meanDuration(0, "client."+op.op)
		m["signaling.transport_us"] = rtt*1e6 - m["signaling.op_us"]
		m["signaling.dispatch_us"] = m["signaling.op_us"] - m["core.decide_us"]*op.decisionsPerOp

		// Pass 3: the same ops in-process, one span per layer.
		from := len(tr.spans)
		n := min(winA.ops, layerPassCap)
		winC, problemsC, err := e.layerPass(tr, countStop(n))
		if err != nil {
			return nil, err
		}
		problems = append(problems, problemsC...)
		rep.attempted += winC.attempted
		rep.failed += winC.failed
		rep.problems = append(rep.problems, winC.problems...)
		if n == winA.ops && winC.fp.checkpointSum() != winB.fp.checkpointSum() {
			problems = append(problems, "the in-process replay decided differently from the daemon")
		}
		predicted, roots := tr.meanDuration(from, "client."+op.op)
		m["bench.budget_gap_frac"] = ratio(meanA-predicted, meanA)
		rep.notes = append(rep.notes, fmt.Sprintf("# layer self times over %d in-process %s requests (µs per request):", roots, op.op))
		for _, lt := range tr.selfTimes(from) {
			rep.notes = append(rep.notes, fmt.Sprintf("#   %-10s %-18s %10.3f   (%d spans)",
				lt.layer, lt.name, float64(lt.selfNS)/1e3/float64(roots), lt.count))
		}
		rep.notes = append(rep.notes, fmt.Sprintf(
			"budget %s: predicted mean RTT = Σ layer self times = %.4g µs; measured untraced mean = %.4g µs; bench.budget_gap_frac = %.4g (transport %.4g µs by registry)",
			def.name, predicted*1e6, meanA*1e6, m["bench.budget_gap_frac"], m["signaling.transport_us"]))
	}

	// Pass 4: each layer's public functions, called directly.
	if err := directPass(e.opts.seed, e.sz, e.opts.out, m); err != nil {
		return nil, fmt.Errorf("direct pass: %w", err)
	}
	probeBudget(m, reg, rep)
	clock.sample()
	m["bench.host_speed"] = mean(clock.speed)

	for name, on := range onlyOn() {
		if slices.Contains(on, def.name) {
			continue
		}
		if _, ok := m[name]; ok {
			return nil, fmt.Errorf("%s produced %s, which is listed as not applying to it", def.name, name)
		}
		m[name] = 0
	}

	rep.problems = append(rep.problems, problems...)
	// One file per run, so that -all keeps every workload's spans.
	path := filepath.Join(e.opts.out, fmt.Sprintf("trace-%s-%d.jsonl", def.name, e.opts.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	rep.notes = append(rep.notes, fmt.Sprintf("# %d spans written to %s", len(tr.spans), path))
	return rep, nil
}

// passOn runs one window on a fixture, then the given steps (readings that
// must be taken before the end-of-run checks disturb them), then verifies
// and closes the fixture.
func (e *env) passOn(inst instance, stop func(int) bool, tr *tracer, after ...func() error) (win *windowResult, problems []string, err error) {
	defer func() {
		if cerr := inst.close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
	}()
	if win, err = e.window(inst, stop, tr); err != nil {
		return nil, nil, err
	}
	for _, step := range after {
		if err := step(); err != nil {
			return nil, nil, err
		}
	}
	return win, inst.verify(), nil
}

// layerPass replays the workload's op sequence on the in-process layered
// backend.
func (e *env) layerPass(tr *tracer, stop func(int) bool) (*windowResult, []string, error) {
	f, err := newLayerFixture(e, e.def.name, tr)
	if err != nil {
		return nil, nil, fmt.Errorf("%s layer pass set-up: %w", e.def.name, err)
	}
	return e.passOn(f, stop, tr)
}

// meanDuration averages, in seconds, the spans of one name with id > from.
func (t *tracer) meanDuration(from int, name string) (float64, int) {
	var total int64
	var n int
	for _, s := range t.spans[from:] {
		if s.Name == name {
			total += s.EndNS - s.StartNS
			n++
		}
	}
	return ratio(float64(total)/1e9, float64(n)), n
}

// registryMetrics derives the counter-based layer metrics from a registry
// delta taken around the traced window.
func registryMetrics(m map[string]float64, d scrape) {
	decisions := d.sum("fafnet_cac_decisions_total")
	probes := d.sum("fafnet_cac_probes_total")
	per := func(family string) float64 { return ratio(d.sum(family), decisions) }
	hitRatio := func(hits, misses string, more ...string) float64 {
		h, all := d.sum(hits), d.sum(hits)+d.sum(misses)
		for _, f := range more {
			all += d.sum(f)
		}
		return ratio(h, all)
	}
	decideSum := d.sum("fafnet_cac_decide_seconds_sum")

	m["signaling.requests"] = d.sum("fafnet_signaling_requests_total")
	m["signaling.errors"] = d.sum("fafnet_signaling_errors_total")

	m["core.decisions"] = decisions
	m["core.admitted_frac"] = ratio(d.sum("fafnet_cac_decisions_total", `outcome="admitted"`), decisions)
	m["core.decide_us"] = 1e6 * ratio(decideSum, d.sum("fafnet_cac_decide_seconds_count"))
	m["core.probes_per_decision"] = per("fafnet_cac_probes_total")
	m["core.bisect_steps_per_decision"] = per("fafnet_cac_bisect_steps_total")
	// Verdict hits cost about a microsecond, so the decide time is the
	// misses' and goes to their probes.
	m["core.probe_us"] = 1e6 * ratio(decideSum, probes)
	m["core.verdict_hit_ratio"] = hitRatio("fafnet_cac_verdict_cache_hits_total", "fafnet_cac_verdict_cache_misses_total", "fafnet_cac_verdict_cache_skips_total")
	m["core.verdict_misses"] = d.sum("fafnet_cac_verdict_cache_misses_total")
	m["core.verdict_skips"] = d.sum("fafnet_cac_verdict_cache_skips_total")
	m["core.stage0_hit_ratio"] = hitRatio("fafnet_cac_cache_stage0_hits_total", "fafnet_cac_cache_stage0_misses_total")
	m["core.mac_cache_hit_ratio"] = hitRatio("fafnet_cac_cache_mac_hits_total", "fafnet_cac_cache_mac_misses_total")
	m["core.flat_lowerings_per_decision"] = per("fafnet_cac_flat_lowerings_total")
	m["core.flat_agg_deltas_per_decision"] = per("fafnet_cac_flat_agg_deltas_total")
	m["core.flat_agg_rebuilds"] = d.sum("fafnet_cac_flat_agg_rebuilds_total")
	m["core.flat_fallbacks"] = d.sum("fafnet_cac_flat_fallbacks_total")
	m["core.shard_commits"] = d.sum("fafnet_shard_commits_total")
	m["core.shard_commit_retries"] = d.sum("fafnet_shard_commit_retries_total")
	m["core.pessimistic_commits"] = d.sum("fafnet_shard_pessimistic_commits_total")
	m["core.reserve_aborts"] = d.sum("fafnet_shard_reserve_aborts_total")

	m["fddi.mac_analyses_per_decision"] = per("fafnet_fddi_mac_analyses_total")
	m["fddi.envelope_evals_per_decision"] = per("fafnet_fddi_mac_envelope_evals_total")
	m["fddi.mac_infeasible"] = d.sum("fafnet_fddi_mac_infeasible_total")
	m["atm.mux_analyses_per_decision"] = per("fafnet_atm_mux_analyses_total")
	m["atm.mux_infeasible"] = d.sum("fafnet_atm_mux_infeasible_total")

	m["obs.audit_records"] = d.sum("fafnet_audit_async_records_total")
	m["obs.audit_batches"] = d.sum("fafnet_audit_write_batches_total")
	m["obs.audit_records_per_batch"] = ratio(m["obs.audit_records"], m["obs.audit_batches"])
	m["obs.audit_backpressure"] = d.sum("fafnet_audit_backpressure_total")
}

// probeBudget composes one probe's cost from how often the registry says
// each analysis ran per probe and what the direct pass says one run costs,
// and reports the share of core.probe_us that composition leaves
// unexplained. The direct costs are taken on stand-alone descriptors, so
// the gap also holds whatever the analyzer's caches and flat path save or
// add: it is reported as a finding, never failed.
func probeBudget(m map[string]float64, d scrape, rep *report) {
	probes := d.sum("fafnet_cac_probes_total")
	if probes == 0 {
		rep.notes = append(rep.notes, "probe budget: the traced window ran no probe (every decision was a verdict-cache hit)")
		return
	}
	mux := m["atm.mux_analyze_k6_us"]
	if m["core.standing_mean"] > 7.5 {
		mux = m["atm.mux_analyze_k9_us"]
	}
	terms := []struct {
		what     string
		perProbe float64
		costUS   float64
	}{
		{"fddi.AnalyzeMAC", d.sum("fafnet_fddi_mac_analyses_total") / probes, m["fddi.mac_analyze_us"]},
		{"atm.AnalyzeMux", d.sum("fafnet_atm_mux_analyses_total") / probes, mux},
		{"traffic.Flatten", d.sum("fafnet_cac_flat_lowerings_total") / probes, m["traffic.flatten_us"]},
		{"traffic.SumInto", d.sum("fafnet_cac_flat_agg_deltas_total") / probes, m["traffic.sum_into_us"]},
	}
	var predicted float64
	line := "probe budget: predicted probe = Σ count × direct cost ="
	for _, t := range terms {
		predicted += t.perProbe * t.costUS
		line += fmt.Sprintf(" %.3g×%s(%.4g µs)", t.perProbe, t.what, t.costUS)
	}
	m["bench.probe_unexplained_frac"] = ratio(m["core.probe_us"]-predicted, m["core.probe_us"])
	rep.notes = append(rep.notes, fmt.Sprintf("%s = %.4g µs; core.probe_us = %.4g µs; bench.probe_unexplained_frac = %.4g",
		line, predicted, m["core.probe_us"], m["bench.probe_unexplained_frac"]))
}
