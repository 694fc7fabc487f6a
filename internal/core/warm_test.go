package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fafnet/internal/shaper"
	"fafnet/internal/topo"
	"fafnet/internal/traffic"
)

// churnDriver is the admit/release sequence of the benchmark's churn
// workload against a one-lane controller: the paper's source from a random
// free host to a random remote one under a class deadline, the oldest
// connections released first so that at most `standing` stand.
type churnDriver struct {
	t        *testing.T
	ctl      *Sharded
	rng      *rand.Rand
	source   traffic.Descriptor
	standing int
	free     []topo.HostID
	held     []ConnSpec // admission order, oldest first
	// shape, when set, puts every fourth request behind this regulator.
	shape    *shaper.Spec
	requests int
}

func newChurnDriver(t *testing.T, standing int) *churnDriver {
	t.Helper()
	ctl, err := NewController(defaultNet(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	src, err := traffic.NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	d := &churnDriver{t: t, ctl: ctl, rng: rand.New(rand.NewSource(1)), source: src, standing: standing}
	cfg := ctl.Network().Config()
	for r := 0; r < cfg.NumRings; r++ {
		for h := 0; h < cfg.HostsPerRing; h++ {
			d.free = append(d.free, topo.HostID{Ring: r, Index: h})
		}
	}
	return d
}

// admit releases down to standing−1 connections and requests one more under
// the given id, drawn as the benchmark draws it.
func (d *churnDriver) admit(id string) Decision {
	d.t.Helper()
	for len(d.held) >= d.standing {
		oldest := d.held[0]
		if !d.ctl.Release(oldest.ID) {
			d.t.Fatalf("release %s: not held", oldest.ID)
		}
		d.held, d.free = d.held[1:], append(d.free, oldest.Src)
	}
	cfg := d.ctl.Network().Config()
	i := d.rng.Intn(len(d.free))
	src := d.free[i]
	dstRing := d.rng.Intn(cfg.NumRings - 1)
	if dstRing >= src.Ring {
		dstRing++
	}
	spec := ConnSpec{
		ID:       id,
		Src:      src,
		Dst:      topo.HostID{Ring: dstRing, Index: d.rng.Intn(cfg.HostsPerRing)},
		Source:   d.source,
		Deadline: 0.030 + 0.005*float64(d.rng.Intn(8)),
	}
	if d.requests++; d.shape != nil && d.requests%4 == 0 {
		spec.Shape = d.shape
	}
	dec, err := d.ctl.RequestAdmission(spec)
	if err != nil {
		d.t.Fatalf("admit %s: %v", id, err)
	}
	if dec.Admitted {
		d.held, d.free = append(d.held, spec), append(d.free[:i], d.free[i+1:]...)
	}
	return dec
}

// TestWarmLaneEqualsFreshAnalyzer is the property the port aggregates are
// summed afresh for: a delay is a function of the connection set alone. After
// every admit of a 600-admit churn, the delays the warm lane reports — and
// the delays the admitting decision carried — are, bit for bit, those of an
// analyzer that has never seen another set. Every fourth request is shaped:
// the regulator's Min envelope lowers like the others, so those members ride
// the same port-verdict and receiver-MAC caches.
func TestWarmLaneEqualsFreshAnalyzer(t *testing.T) {
	d := newChurnDriver(t, 6)
	d.shape = &shaper.Spec{SigmaBits: 40e3, RhoBps: 6e6}
	compared, differ, shaped := 0, 0, 0
	for i := 0; i < 600; i++ {
		dec := d.admit(fmt.Sprintf("w%d", i))
		if !dec.Admitted {
			continue
		}
		if d.held[len(d.held)-1].Shape != nil {
			shaped++
		}
		fresh, err := NewAnalyzer(d.ctl.Network(), AnalysisOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Delays(d.ctl.Connections())
		if err != nil {
			t.Fatal(err)
		}
		report, err := d.ctl.DelayReport()
		if err != nil {
			t.Fatal(err)
		}
		if len(report) != len(want) {
			t.Fatalf("admit %d: the lane reports %d delays, a fresh analyzer %d", i, len(report), len(want))
		}
		for id, w := range want {
			compared++
			if got := report[id]; !sameFloatBits(got, w) {
				differ++
				t.Errorf("admit %d, %s: the warm lane reports %v (%#x), a fresh analyzer %v (%#x)",
					i, id, got, math.Float64bits(got), w, math.Float64bits(w))
			}
		}
		for id, got := range dec.Delays {
			compared++
			if w := want[id]; !sameFloatBits(got, w) {
				differ++
				t.Errorf("admit %d, %s: the decision carried %v (%#x), a fresh analyzer %v (%#x)",
					i, id, got, math.Float64bits(got), w, math.Float64bits(w))
			}
		}
	}
	if compared < 3000 || shaped < 50 {
		t.Fatalf("only %d delays compared, %d admits shaped: the churn no longer holds a standing set with shaped members", compared, shaped)
	}
	if differ > 0 {
		t.Fatalf("%d of %d delays differ", differ, compared)
	}
}

// TestPerConnectionCachesStayBounded: clients that reuse a handful of ids
// with unchanged specs draw a handful of classes, and every decision probes
// allocations the candidate's record has not seen. No map in the analyzer may
// grow with the op count all the same: one record per class drawn, each
// within maxConnEntries, and the port verdicts within maxPortMuxEntries.
func TestPerConnectionCachesStayBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("3,000 admit/release operations")
	}
	// One id per host with a fixed destination and deadline, so a reused id
	// always carries the spec its caches were filled under.
	d := newChurnDriver(t, 1<<30)
	specs := make([]ConnSpec, len(d.free))
	for i, src := range d.free {
		specs[i] = ConnSpec{
			ID:       fmt.Sprintf("h%d", i),
			Src:      src,
			Dst:      topo.HostID{Ring: (src.Ring + 1) % d.ctl.Network().Config().NumRings, Index: src.Index},
			Source:   d.source,
			Deadline: 0.050,
		}
	}
	up := make([]bool, len(specs))
	for op := 0; op < 3000; op++ {
		i := d.rng.Intn(len(specs))
		if up[i] {
			if !d.ctl.Release(specs[i].ID) {
				t.Fatalf("op %d: release %s: not held", op, specs[i].ID)
			}
			up[i] = false
			continue
		}
		dec, err := d.ctl.RequestAdmission(specs[i])
		if err != nil {
			t.Fatalf("op %d: admit %s: %v", op, specs[i].ID, err)
		}
		up[i] = dec.Admitted
	}
	d.ctl.mu.Lock()
	defer d.ctl.mu.Unlock()
	an := d.ctl.an
	// Every spec shares the source and has no buffer or shape: one class per
	// ring pair.
	classes := d.ctl.Network().Config().NumRings
	if len(an.conns) > classes {
		t.Errorf("%d records for %d classes", len(an.conns), classes)
	}
	total := 0
	for k, rec := range an.conns {
		if n := len(rec.hops); n > maxConnEntries {
			t.Errorf("record of ring %d→%d holds %d hop results, cap %d", k.srcRing, k.dstRing, n, maxConnEntries)
		}
		total += len(rec.hops)
	}
	if n := len(an.portMux); n > maxPortMuxEntries {
		t.Errorf("the port verdicts number %d, cap %d", n, maxPortMuxEntries)
	}
	// With every record within its cap the total is within classes × cap;
	// without one the sender-side entries alone read 38,100 here, linear in
	// the op count.
	t.Logf("%d hop results on %d classes", total, len(an.conns))
}
