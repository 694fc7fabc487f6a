package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"fafnet/internal/atm"
	"fafnet/internal/core"
	"fafnet/internal/des"
	"fafnet/internal/fddi"
	"fafnet/internal/ifdev"
	"fafnet/internal/obs"
	"fafnet/internal/packetsim"
	"fafnet/internal/scenario"
	"fafnet/internal/signaling"
	"fafnet/internal/sim"
	"fafnet/internal/topo"
	"fafnet/internal/traffic"
	"fafnet/internal/workload"
)

// The direct pass calls each layer's public functions on inputs taken from
// the workloads (the paper's source descriptor, churn's wire requests, a
// nine-connection admitted set) and times them from outside. These numbers
// do not depend on which workload the traced run belongs to; every traced
// run takes them so that every run reports every per-layer metric.

// sink keeps timed results alive so the compiler cannot drop the calls.
var sink float64

// timeCall repeats f for budget (at least three times) and returns the mean
// seconds per call.
func timeCall(budget time.Duration, f func() error) (float64, error) {
	var n int
	t0 := time.Now()
	for n < 3 || time.Since(t0) < budget {
		if err := f(); err != nil {
			return 0, err
		}
		n++
	}
	return time.Since(t0).Seconds() / float64(n), nil
}

// directPass fills m with every direct-call metric.
func directPass(seed int64, sz sizes, outDir string, m map[string]float64) error {
	us := func(name string, f func() error) error {
		s, err := timeCall(sz.directBudget, f)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		m[name] = s * 1e6
		return nil
	}
	return errors.Join(
		directCodec(seed, m, us),
		directAnalyses(sz, m, us),
		directCore(seed, sz, m, us),
		directAudit(outDir, m, us),
		directSim(seed, sz, m, us),
	)
}

type timer func(name string, f func() error) error

// directCodec times the JSON wire codec on a single admit and on a
// 512-member batch, and Request.Spec on its own.
func directCodec(seed int64, m map[string]float64, us timer) error {
	rng := des.NewRNG(seed)
	hosts := allHosts()
	one := buildRequest(rng, "c1-0", hosts[0], 45)
	batch := make([]scenario.Request, batchMembers)
	decs := make([]*signaling.Decision, batchMembers)
	for i := range batch {
		batch[i] = buildRequest(rng, fmt.Sprintf("b0-%d", i), hosts[rng.Intn(len(hosts))], classDeadline(rng))
		decs[i] = &signaling.Decision{Admitted: i%2 == 0, Reason: "admitted", HSMillis: 0.2173913043478261,
			HRMillis: 0.2318840579710145, DelayMillis: 29.123456789012345, DeadlineMillis: batch[i].DeadlineMillis, Probes: 17}
	}
	cases := []struct {
		suffix string
		req    signaling.Request
		resp   signaling.Response
	}{
		{"_us", signaling.Request{Op: signaling.OpAdmit, Admit: &one},
			signaling.Response{OK: true, Op: signaling.OpAdmit, Decision: decs[0]}},
		{"_batch512_us", signaling.Request{Op: signaling.OpPreviewBatch, AdmitBatch: batch},
			signaling.Response{OK: true, Op: signaling.OpPreviewBatch, Decisions: decs}},
	}
	for _, c := range cases {
		reqLine, err := json.Marshal(c.req)
		if err != nil {
			return err
		}
		respLine, err := json.Marshal(c.resp)
		if err != nil {
			return err
		}
		err = errors.Join(
			us("signaling.encode_request"+c.suffix, func() error { _, err := json.Marshal(c.req); return err }),
			us("signaling.decode_request"+c.suffix, func() error {
				var r signaling.Request
				if err := json.Unmarshal(reqLine, &r); err != nil {
					return err
				}
				return r.Validate()
			}),
			us("signaling.encode_response"+c.suffix, func() error { _, err := json.Marshal(c.resp); return err }),
			us("signaling.decode_response"+c.suffix, func() error {
				var r signaling.Response
				return json.Unmarshal(respLine, &r)
			}),
		)
		if err != nil {
			return err
		}
	}
	return us("scenario.spec_us", func() error { _, err := one.Spec(); return err })
}

// directAnalyses times the per-server analyses and the flat kernels on the
// paper's source: Theorem 1 at a roomy and at a near-minimum allocation,
// the FIFO mux with six and nine inputs, the Theorem 2 conversions, and the
// traffic.Flat lowering, merge, shift and point evaluation.
func directAnalyses(sz sizes, m map[string]float64, us timer) error {
	src, err := paperSource.Descriptor()
	if err != nil {
		return err
	}
	ring := defaultGrid.Ring
	// ρ = 5 Mb/s needs H ≥ ρ·TTRT/BW = 0.2 ms; 5 % above it the busy
	// interval is deep.
	const rhoBps = 5e6
	hMin := rhoBps * ring.TTRT / ring.BandwidthBps
	roomy := fddi.MACParams{Ring: ring, H: 1e-3}
	var mac fddi.MACResult
	err = errors.Join(
		us("fddi.mac_analyze_us", func() (err error) {
			mac, err = fddi.AnalyzeMAC(src, roomy, fddi.Options{})
			return err
		}),
		us("fddi.mac_analyze_deep_us", func() error {
			_, err := fddi.AnalyzeMAC(src, fddi.MACParams{Ring: ring, H: 1.05 * hMin}, fddi.Options{})
			return err
		}),
	)
	if err != nil {
		return err
	}
	port := atm.MuxParams{CapacityBps: atm.PayloadCapacity(defaultGrid.LinkBps)}
	for _, k := range []int{6, 9} {
		inputs := make([]traffic.Descriptor, k)
		for i := range inputs {
			inputs[i] = src
		}
		if err := us(fmt.Sprintf("atm.mux_analyze_k%d_us", k), func() error {
			_, err := atm.AnalyzeMux(inputs, port, atm.MuxOptions{})
			return err
		}); err != nil {
			return err
		}
	}
	frameBits := ring.FrameBits(roomy.H)
	var cells traffic.Descriptor
	if err := us("ifdev.conversion_us", func() (err error) {
		if cells, err = ifdev.SenderConversion(mac.Output, frameBits, defaultGrid.ID); err != nil {
			return err
		}
		_, err = ifdev.ReceiverConversion(cells, frameBits, defaultGrid.ID)
		return err
	}); err != nil {
		return err
	}

	// The stage-0 envelope of a connection: MAC output through the
	// frame-to-cell conversion, lowered over the analyzer's first horizon.
	const horizon = 16e-3
	var flat *traffic.Flat
	if err := us("traffic.flatten_us", func() error {
		if flat = traffic.Flatten(cells, horizon); flat == nil {
			return errors.New("the stage-0 chain has no flat lowering")
		}
		return nil
	}); err != nil {
		return err
	}
	m["traffic.flat_segments"] = float64(flat.Segments())
	other := traffic.Flatten(src, horizon)
	if other == nil {
		return errors.New("the source has no flat lowering")
	}
	scratch := &traffic.Flat{}
	err = errors.Join(
		us("traffic.sum_into_us", func() error { traffic.SumInto(scratch, flat, other); return nil }),
		us("traffic.shift_cap_us", func() error {
			if flat.ShiftCap(0.4e-3, port.CapacityBps, horizon, cells) == nil {
				return errors.New("ShiftCap returned no flat")
			}
			return nil
		}),
	)
	if err != nil {
		return err
	}
	const evals = 1000
	s, err := timeCall(sz.directBudget, func() error {
		for i := 0; i < evals; i++ {
			sink += flat.Bits(float64(i%160+1) * 1e-4)
		}
		return nil
	})
	m["traffic.bits_ns"] = s * 1e9 / evals

	net0, err := topo.NewNetwork(defaultGrid)
	if err != nil {
		return err
	}
	hosts := net0.Hosts()
	s, err = timeCall(sz.directBudget, func() error {
		for i := 0; i < evals; i++ {
			r, err := net0.Route(hosts[i%4], hosts[4+i%8])
			if err != nil {
				return err
			}
			sink += r.ConstantDelay
		}
		return nil
	})
	m["topo.route_ns"] = s * 1e9 / evals
	return err
}

// standingSet admits n paper-source connections through a Controller, one
// per host, each to the next ring, and returns the controller.
func standingSet(n int) (*core.Controller, error) {
	net0, err := topo.NewNetwork(defaultGrid)
	if err != nil {
		return nil, err
	}
	ctl, err := core.NewController(net0, core.Options{})
	if err != nil {
		return nil, err
	}
	src, err := paperSource.Descriptor()
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		dec, err := ctl.RequestAdmission(core.ConnSpec{
			ID:       fmt.Sprintf("bg%d", i),
			Src:      topo.HostID{Ring: i % 3, Index: i / 3},
			Dst:      topo.HostID{Ring: (i + 1) % 3, Index: i / 3},
			Source:   src,
			Deadline: 0.070,
		})
		if err != nil {
			return nil, err
		}
		if !dec.Admitted {
			return nil, fmt.Errorf("background connection %d rejected: %s", i, dec.Reason)
		}
	}
	return ctl, nil
}

// directCore replays the head of the churn sequence straight into Sharded
// and into the serialized Controller, and times one probe cold and warm
// against nine standing connections.
func directCore(seed int64, sz sizes, m map[string]float64, us timer) error {
	for _, name := range []string{"core.admit_direct_us", "core.controller_admit_us"} {
		net0, err := topo.NewNetwork(defaultGrid)
		if err != nil {
			return err
		}
		var b coreBackend
		if name == "core.admit_direct_us" {
			pipe, err := core.NewSharded(net0, core.Options{}, 0)
			if err != nil {
				return err
			}
			b = coreBackend{admit: pipe.RequestAdmission, preview: pipe.PreviewAdmission, release: pipe.Release}
		} else {
			ctl, err := core.NewController(net0, core.Options{})
			if err != nil {
				return err
			}
			b = coreBackend{admit: ctl.RequestAdmission, preview: ctl.PreviewAdmission, release: ctl.Release}
		}
		c := newChurn(seed)
		w := newWindowResult(0, nil, 0)
		c.run(target{b: b}, w, countStop(sz.directChurnOps))
		if w.failed > 0 {
			return fmt.Errorf("%s: %v", name, w.problems)
		}
		m[name] = mean(w.lats) * 1e6
	}

	ctl, err := standingSet(9)
	if err != nil {
		return err
	}
	existing := ctl.Connections()
	route, err := ctl.Network().Route(topo.HostID{Ring: 0, Index: 3}, topo.HostID{Ring: 2, Index: 3})
	if err != nil {
		return err
	}
	src, err := paperSource.Descriptor()
	if err != nil {
		return err
	}
	cand := &core.Connection{
		ConnSpec: core.ConnSpec{ID: "probe", Src: route.Src, Dst: route.Dst, Source: src, Deadline: 0.070},
		Route:    route,
	}
	var session *core.ProbeSession
	err = us("core.probe_cold_us", func() error {
		an, err := core.NewAnalyzer(ctl.Network(), core.AnalysisOptions{})
		if err != nil {
			return err
		}
		if session, err = an.NewProbeSession(existing, cand); err != nil {
			return err
		}
		_, err = session.Delays(1e-3, 1e-3)
		return err
	})
	if err != nil {
		return err
	}
	// A bisection re-probes one session at nearby allocations.
	step := 0
	return us("core.probe_warm_us", func() error {
		step++
		h := 1e-3 + float64(step%8)*2e-5
		_, err := session.Delays(h, h)
		return err
	})
}

// directAudit times the audit path on a real file: the producer's enqueue
// (fewer records than the queue holds, so it never waits for the writer),
// the writer's append, and an fsync (disk-dependent, informational).
func directAudit(outDir string, m map[string]float64, us timer) error {
	a, err := openAuditFile(outDir)
	if err != nil {
		return err
	}
	log, err := obs.OpenAuditLog(filepath.Join(a.dir, "direct.jsonl"))
	if err != nil {
		return errors.Join(err, a.close())
	}
	rec := auditRecord("preview", core.ConnSpec{ID: "b0-0", Deadline: 0.045},
		core.Decision{Admitted: true, Reason: "admitted", HS: 2.1e-4, HR: 2.3e-4, Probes: 17}, nil)
	const enqueues = auditQueue / 2
	t0 := time.Now()
	for i := 0; i < enqueues; i++ {
		a.w.Enqueue(rec)
	}
	m["obs.audit_enqueue_us"] = time.Since(t0).Seconds() * 1e6 / enqueues
	err = errors.Join(
		us("obs.audit_append_us", func() error { return log.Append(rec) }),
		us("obs.audit_sync_us", func() error {
			if err := log.Append(rec); err != nil {
				return err
			}
			return log.Sync()
		}),
	)
	return errors.Join(err, log.Close(), a.close())
}

// directSim times the experiment-side layers: one recorded RunMulti and its
// trace replay, the arrival generator, the trace codec, the packet-level
// simulator on the nine-connection set, and the bare event queue.
func directSim(seed int64, sz sizes, m map[string]float64, us timer) error {
	spec := workload.RandomSpec(des.NewRNG(seed))
	cfg := sim.MultiConfig{Spec: spec, Requests: sz.scenarioRequests, Warmup: sz.scenarioWarmup, Seed: seed, Record: true}
	t0 := time.Now()
	rec, err := sim.RunMulti(cfg)
	if err != nil {
		return err
	}
	m["sim.multi_us_per_request"] = time.Since(t0).Seconds() * 1e6 / float64(len(rec.Trace))
	t0 = time.Now()
	rep, err := sim.RunMulti(sim.MultiConfig{Replay: rec.Trace, Warmup: sz.scenarioWarmup})
	if err != nil {
		return err
	}
	m["sim.replay_us_per_request"] = time.Since(t0).Seconds() * 1e6 / float64(len(rec.Trace))
	if rep.Fingerprint != rec.Fingerprint {
		return errors.New("direct replay diverged from its recording")
	}

	var buf bytes.Buffer
	if err := us("workload.trace_roundtrip_us", func() error {
		buf.Reset()
		if err := workload.WriteTrace(&buf, rec.Trace); err != nil {
			return err
		}
		back, err := workload.ReadTrace(&buf)
		if err == nil && len(back) != len(rec.Trace) {
			err = fmt.Errorf("trace round trip returned %d of %d events", len(back), len(rec.Trace))
		}
		return err
	}); err != nil {
		return err
	}

	gen, err := workload.NewGenerator(spec, seed)
	if err != nil {
		return err
	}
	const draws = 1000
	s, err := timeCall(sz.directBudget, func() error {
		for i := 0; i < draws; i++ {
			sink += gen.Next().At
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["workload.generate_arrivals_per_s"] = draws / s

	ctl, err := standingSet(9)
	if err != nil {
		return err
	}
	t0 = time.Now()
	pres, err := packetsim.Run(packetsim.Config{Topology: defaultGrid, Connections: ctl.Connections(), Duration: sz.packetSeconds, Seed: seed})
	if err != nil {
		return err
	}
	host := time.Since(t0).Seconds()
	if !pres.AllWithinBounds() {
		return errors.New("direct packetsim run measured a delay above its bound")
	}
	m["packetsim.run_ms"] = host * 1e3
	m["packetsim.sim_s_per_host_s"] = sz.packetSeconds / host

	// Bare event queue: a thousand self-rescheduling timers.
	const timers, horizon = 1000, 50.0
	simulator := des.NewSimulator()
	rng := des.NewRNG(seed)
	var fire func()
	var schedErr error
	fire = func() {
		if _, err := simulator.After(rng.Exp(1), fire); err != nil {
			schedErr = err
		}
	}
	for i := 0; i < timers; i++ {
		fire()
	}
	t0 = time.Now()
	events := simulator.Run(horizon)
	m["des.events_per_s"] = float64(events) / time.Since(t0).Seconds()
	return schedErr
}
