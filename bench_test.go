// Micro-benchmarks for the axes go run ./bench does not time: the admission
// decision across standing-set sizes (E6) and the flat AnalyzeAggregate path
// every probe runs at a port. They are plain go test -bench benches with no
// committed baseline and no gate; bench/ and BENCHMARK.json measure this tree
// (bench/README.md), and CI runs each of these once so they still compile and
// their preconditions still hold.
package fafnet_test

import (
	"fmt"
	"testing"

	"fafnet"
	"fafnet/internal/atm"
	"fafnet/internal/core"
	"fafnet/internal/topo"
	"fafnet/internal/traffic"
)

// benchConnections admits n connections through a fresh controller.
func benchConnections(b *testing.B, n int) *core.Controller {
	b.Helper()
	net, err := topo.NewNetwork(topo.Default())
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
	return ctl
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
			ctl := benchConnections(b, active)
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
		ctl := benchConnections(b, 6)
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

// BenchmarkMuxAnalysis measures the FIFO output-port bound in the form the
// analyzer runs on every probe: AnalyzeAggregate over a materialized flat sum
// of per-connection flats (each paper-workload source behind its sender MAC's
// delay) on an owned workspace. shortBusy has three members, where the busy
// period ends early in the sum's window (as at nearly every port of an
// admissible network) and the analysis is one walk over its segments;
// longBusy has six, where it ends past the first 2 ms and the walk reads
// further. bench/ times AnalyzeMux on raw sources only.
func BenchmarkMuxAnalysis(b *testing.B) {
	p := atm.MuxParams{CapacityBps: atm.PayloadCapacity(atm.DefaultLinkBps)}
	newSource := func() traffic.Descriptor {
		d, err := traffic.NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	const early = 2e-3
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
			opts := atm.MuxOptions{}
			res, err := atm.AnalyzeAggregate(agg, p, opts)
			if err != nil {
				b.Fatal(err)
			}
			if (res.BusyPeriod < early) != c.short {
				b.Fatalf("busy period %v s against %v s", res.BusyPeriod, early)
			}
			b.Logf("busy period %v s, window %v s", res.BusyPeriod, agg.Horizon())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := atm.AnalyzeAggregate(agg, p, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
