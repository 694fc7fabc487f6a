// Benchmarks, one per reproduced experiment (see the experiment index in
// DESIGN.md), plus micro-benchmarks of the analysis primitives they are
// built from. The experiment benches run scaled-down versions of the full
// sweeps driven by cmd/fafsim and cmd/faftrace, and report the admission
// probability they measured via ReportMetric so a bench run doubles as a
// sanity check of the figures' shape.
package fafnet_test

import (
	"fmt"
	"testing"

	"fafnet"
	"fafnet/internal/atm"
	"fafnet/internal/core"
	"fafnet/internal/fddi"
	"fafnet/internal/packetsim"
	"fafnet/internal/sim"
	"fafnet/internal/tokenring"
	"fafnet/internal/topo"
	"fafnet/internal/traffic"
)

// benchSimConfig is the scaled-down Section 6 run used inside benchmarks.
func benchSimConfig(u, beta float64, seed int64) sim.Config {
	return sim.Config{
		Utilization: u,
		Requests:    40,
		Warmup:      8,
		Seed:        seed,
		CAC:         core.Options{Beta: beta, BetaSet: true, SearchIters: 10},
	}
}

// BenchmarkFigure7 reproduces one point of Figure 7 (AP vs β) per
// sub-benchmark: the three β extremes at the paper's three load levels.
func BenchmarkFigure7(b *testing.B) {
	for _, u := range []float64{0.3, 0.6, 0.9} {
		for _, beta := range []float64{0, 0.5, 1} {
			b.Run(fmt.Sprintf("U%.1f/beta%.1f", u, beta), func(b *testing.B) {
				var ap float64
				for i := 0; i < b.N; i++ {
					res, err := sim.Run(benchSimConfig(u, beta, int64(i)+1))
					if err != nil {
						b.Fatal(err)
					}
					ap = res.AP.Value()
				}
				b.ReportMetric(ap, "AP")
			})
		}
	}
}

// BenchmarkFigure8 reproduces one point of Figure 8 (AP vs U) per
// sub-benchmark at the paper's recommended β = 0.5.
func BenchmarkFigure8(b *testing.B) {
	for _, u := range []float64{0.2, 0.5, 0.8, 1.0} {
		b.Run(fmt.Sprintf("U%.1f", u), func(b *testing.B) {
			var ap float64
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(benchSimConfig(u, 0.5, int64(i)+1))
				if err != nil {
					b.Fatal(err)
				}
				ap = res.AP.Value()
			}
			b.ReportMetric(ap, "AP")
		})
	}
}

// BenchmarkAblationAllocationRule is experiment E4: the proportional rule
// of Section 5.3 against the fixed-split and sender-biased baselines.
func BenchmarkAblationAllocationRule(b *testing.B) {
	for _, rule := range []core.Rule{core.RuleProportional, core.RuleFixedSplit, core.RuleSenderBiased} {
		b.Run(rule.String(), func(b *testing.B) {
			var ap float64
			for i := 0; i < b.N; i++ {
				cfg := benchSimConfig(0.8, 0.5, int64(i)+1)
				cfg.CAC.Rule = rule
				res, err := sim.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				ap = res.AP.Value()
			}
			b.ReportMetric(ap, "AP")
		})
	}
}

// benchConnections admits n connections through a fresh controller.
func benchConnections(b *testing.B, n int) (topo.Config, *core.Controller) {
	b.Helper()
	topoCfg := topo.Default()
	net, err := topo.NewNetwork(topoCfg)
	if err != nil {
		b.Fatal(err)
	}
	ctl, err := core.NewController(net, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	src, err := traffic.NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		spec := core.ConnSpec{
			ID:       fmt.Sprintf("bg%d", i),
			Src:      topo.HostID{Ring: i % 3, Index: i / 3},
			Dst:      topo.HostID{Ring: (i + 1) % 3, Index: i / 3},
			Source:   src,
			Deadline: 0.070,
		}
		dec, err := ctl.RequestAdmission(spec)
		if err != nil {
			b.Fatal(err)
		}
		if !dec.Admitted {
			b.Fatalf("background connection %d rejected: %s", i, dec.Reason)
		}
	}
	return topoCfg, ctl
}

// BenchmarkValidationE3 runs the packet-level bound validation with four
// admitted connections for a short simulated span.
func BenchmarkValidationE3(b *testing.B) {
	topoCfg, ctl := benchConnections(b, 4)
	conns := ctl.Connections()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := packetsim.Run(packetsim.Config{
			Topology:    topoCfg,
			Connections: conns,
			Duration:    0.25,
			Seed:        int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllWithinBounds() {
			b.Fatal("bound violation")
		}
	}
}

// BenchmarkCACAdmit is experiment E6: the cost of one admission decision as
// the number of already-active connections grows. Every iteration asks for a
// deadline one verdictStep later than the last: the controller caches
// verdicts by (admitted multiset, candidate class), and a repeated class
// would time the cache lookup instead of the analysis. The analyzer's own
// caches key on the spec without its deadline, so they stay as warm — or as
// cold — as each case below says.
func BenchmarkCACAdmit(b *testing.B) {
	const verdictStep = 1e-12 // seconds; far below anything a verdict can see
	src, err := traffic.NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)
	if err != nil {
		b.Fatal(err)
	}
	for _, active := range []int{0, 3, 6, 9} {
		b.Run(fmt.Sprintf("active%d", active), func(b *testing.B) {
			_, ctl := benchConnections(b, active)
			spec := core.ConnSpec{
				ID:       "probe",
				Src:      fafnet.HostID{Ring: 0, Index: 3},
				Dst:      fafnet.HostID{Ring: 2, Index: 3},
				Source:   src,
				Deadline: 0.070,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				spec.Deadline = 0.070 + float64(i)*verdictStep
				dec, err := ctl.RequestAdmission(spec)
				if err != nil {
					b.Fatal(err)
				}
				if dec.Admitted {
					ctl.Release("probe")
				}
			}
		})
	}
	// The active* cases above re-admit one id, so from the second iteration
	// every analysis is an analyzer-cache hit: warm replay. A daemon under
	// churn sees a new id with every request, and every probe of its
	// bisection runs its sender-MAC, port and receiver-MAC analyses for the
	// first time.
	b.Run("firstContact", func(b *testing.B) {
		_, ctl := benchConnections(b, 6)
		spec := core.ConnSpec{
			Src:      fafnet.HostID{Ring: 0, Index: 3},
			Dst:      fafnet.HostID{Ring: 2, Index: 3},
			Source:   src,
			Deadline: 0.070,
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			spec.ID = fmt.Sprintf("first%d", i)
			spec.Deadline = 0.070 + float64(i)*verdictStep
			dec, err := ctl.RequestAdmission(spec)
			if err != nil {
				b.Fatal(err)
			}
			if dec.Admitted {
				ctl.Release(spec.ID)
			}
		}
	})
}

// BenchmarkDelayAnalysis measures one full-network worst-case evaluation —
// the inner loop of every CAC probe.
func BenchmarkDelayAnalysis(b *testing.B) {
	_, ctl := benchConnections(b, 6)
	net := ctl.Network()
	an, err := core.NewAnalyzer(net, core.AnalysisOptions{})
	if err != nil {
		b.Fatal(err)
	}
	conns := ctl.Connections()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := an.Delays(conns); err != nil {
			b.Fatal(err)
		}
		// Fresh analyzer every 8 rounds so the bench reflects a mix of
		// cold and warm MAC caches, as the CAC sees.
		if i%8 == 7 {
			an, err = core.NewAnalyzer(net, core.AnalysisOptions{})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMACAnalysis measures Theorem 1 on the paper's workload: at a
// comfortable allocation (a busy interval of a few rotations), and — deep —
// at an allocation 0.15 % above the stability limit, where the busy interval
// runs past 500 rotations and the extremum scans walk a grid
// of thousands of points. Low-allocation bisection probes live in the second
// regime.
func BenchmarkMACAnalysis(b *testing.B) {
	src, err := traffic.NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)
	if err != nil {
		b.Fatal(err)
	}
	ring := topo.Default().Ring
	hLimit := src.LongTermRate() * ring.TTRT / ring.BandwidthBps
	for _, c := range []struct {
		name   string
		h      float64
		minRot float64
	}{
		{"paper", 1e-3, 0},
		{"deep", 1.0015 * hLimit, 500},
	} {
		b.Run(c.name, func(b *testing.B) {
			params := fddi.MACParams{Ring: ring, H: c.h}
			res, err := fddi.AnalyzeMAC(src, params, fddi.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if res.BusyInterval < c.minRot*ring.TTRT {
				b.Fatalf("busy interval of %.0f rotations, want at least %v", res.BusyInterval/ring.TTRT, c.minRot)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fddi.AnalyzeMAC(src, params, fddi.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMuxAnalysis measures the FIFO output-port bound on the paper's
// workload. paper is the cold form: six sources handed to AnalyzeMux, which
// sums them per point. shortBusy and longBusy are the form the analyzer runs
// on every probe — AnalyzeAggregate over a materialized flat sum of
// per-connection flats (each source behind its sender MAC's delay) on an
// owned workspace — with three members, where the busy period ends within an
// eighth of the 16 ms the search starts with (as at nearly every port of an
// admissible network, and where the search assembles only that much of its
// grid), and with six, where it does not and the grid is assembled twice.
func BenchmarkMuxAnalysis(b *testing.B) {
	p := atm.MuxParams{CapacityBps: atm.PayloadCapacity(atm.DefaultLinkBps)}
	newSource := func() traffic.Descriptor {
		d, err := traffic.NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	b.Run("paper", func(b *testing.B) {
		var inputs []traffic.Descriptor
		for i := 0; i < 6; i++ {
			inputs = append(inputs, newSource())
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := atm.AnalyzeMux(inputs, p, atm.MuxOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	const firstPrefix = 16e-3 / 8
	for _, c := range []struct {
		name    string
		members int
		short   bool
	}{
		{"shortBusy", 3, true},
		{"longBusy", 6, false},
	} {
		b.Run(c.name, func(b *testing.B) {
			flats := make([]*traffic.Flat, c.members)
			for i := range flats {
				chain, err := traffic.NewDelayed(newSource(), float64(8+i)*1e-3, 100e6)
				if err != nil {
					b.Fatal(err)
				}
				if flats[i] = traffic.Flatten(chain, 0.025); flats[i] == nil {
					b.Fatal("the chain has no lowering")
				}
			}
			var ws traffic.Workspace
			agg := ws.Sum(flats)
			opts := atm.MuxOptions{Workspace: &ws}
			res, err := atm.AnalyzeAggregate(agg, p, opts)
			if err != nil {
				b.Fatal(err)
			}
			if (res.BusyPeriod < firstPrefix) != c.short {
				b.Fatalf("busy period %v s against a first prefix of %v s", res.BusyPeriod, firstPrefix)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := atm.AnalyzeAggregate(agg, p, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPriorityMuxAnalysis measures the E8 static-priority port bound
// with two classes of three paper-workload connections each.
func BenchmarkPriorityMuxAnalysis(b *testing.B) {
	mk := func() []traffic.Descriptor {
		var out []traffic.Descriptor
		for i := 0; i < 3; i++ {
			d, err := traffic.NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)
			if err != nil {
				b.Fatal(err)
			}
			out = append(out, d)
		}
		return out
	}
	classes := []atm.PriorityClass{{Inputs: mk()}, {Inputs: mk()}}
	p := atm.MuxParams{CapacityBps: atm.PayloadCapacity(atm.DefaultLinkBps)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := atm.AnalyzePriorityMux(classes, p, atm.MuxOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTokenRingCAC is experiment E5: the 802.5_MAC analysis of the
// Section 7 extension.
func BenchmarkTokenRingCAC(b *testing.B) {
	src, err := traffic.NewPeriodic(10e3, 0.010, 16e6)
	if err != nil {
		b.Fatal(err)
	}
	params := tokenring.MACParams{Ring: tokenring.DefaultRingConfig(), THT: 2e-3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tokenring.AnalyzeMAC(src, params, fddi.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnvelopeEval measures a single Γ(I) evaluation through a
// realistic transform chain (MAC output → conversion → two mux outputs).
func BenchmarkEnvelopeEval(b *testing.B) {
	src, err := traffic.NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)
	if err != nil {
		b.Fatal(err)
	}
	mac, err := fddi.AnalyzeMAC(src, fddi.MACParams{Ring: topo.Default().Ring, H: 1e-3}, fddi.Options{})
	if err != nil {
		b.Fatal(err)
	}
	q, err := traffic.NewQuantized(mac.Output, 36000, 94*384)
	if err != nil {
		b.Fatal(err)
	}
	d1, err := traffic.NewDelayed(q, 0.4e-3, 140e6)
	if err != nil {
		b.Fatal(err)
	}
	d2, err := traffic.NewDelayed(d1, 0.2e-3, 140e6)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += d2.Bits(float64(i%100+1) * 1e-4)
	}
	_ = sink
}
