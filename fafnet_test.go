package fafnet_test

import (
	"math"
	"testing"

	"fafnet"
	"fafnet/internal/des"
)

// TestFacadeQuickstart exercises the exact flow the package documentation
// advertises.
func TestFacadeQuickstart(t *testing.T) {
	net, err := fafnet.NewNetwork(fafnet.DefaultTopology())
	if err != nil {
		t.Fatal(err)
	}
	cac, err := fafnet.NewController(net, fafnet.Options{Beta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	src, err := fafnet.NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := cac.RequestAdmission(fafnet.ConnSpec{
		ID:       "video-1",
		Src:      fafnet.HostID{Ring: 0, Index: 0},
		Dst:      fafnet.HostID{Ring: 1, Index: 0},
		Source:   src,
		Deadline: 0.050,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Admitted {
		t.Fatalf("quickstart admission rejected: %s", dec.Reason)
	}
	if dec.HS <= 0 || dec.HR <= 0 {
		t.Errorf("allocations HS=%v HR=%v", dec.HS, dec.HR)
	}
	bd, err := cac.BreakdownFor("video-1")
	if err != nil {
		t.Fatal(err)
	}
	if bd.Total <= 0 || bd.Total > 0.050 {
		t.Errorf("breakdown total %v outside (0, deadline]", bd.Total)
	}
}

// TestFacadeValidation runs the packet-level validator through the facade.
func TestFacadeValidation(t *testing.T) {
	topoCfg := fafnet.DefaultTopology()
	net, err := fafnet.NewNetwork(topoCfg)
	if err != nil {
		t.Fatal(err)
	}
	cac, err := fafnet.NewController(net, fafnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src, err := fafnet.NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := cac.RequestAdmission(fafnet.ConnSpec{
		ID: "c1", Src: fafnet.HostID{Ring: 0, Index: 0}, Dst: fafnet.HostID{Ring: 2, Index: 1},
		Source: src, Deadline: 0.060,
	})
	if err != nil || !dec.Admitted {
		t.Fatalf("admission: %v %v", err, dec.Reason)
	}
	res, err := fafnet.Validate(fafnet.ValidationConfig{
		Topology:    topoCfg,
		Connections: cac.Connections(),
		Duration:    0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllWithinBounds() {
		t.Error("validation found a bound violation")
	}
}

// TestLedgersExactAfterBalancedChurn is the ledger half of the soundness
// contract, through the library API: after any balanced sequence of
// admissions and releases every ring's allocated synchronous time is exactly
// zero and its available time exactly what it started with — bit for bit,
// not to a tolerance. Connection ids are reused (one per source host), so
// an id left behind in the admitted state would fail that id's next
// admission with an error.
func TestLedgersExactAfterBalancedChurn(t *testing.T) {
	net, err := fafnet.NewNetwork(fafnet.DefaultTopology())
	if err != nil {
		t.Fatal(err)
	}
	cac, err := fafnet.NewController(net, fafnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	video, err := fafnet.NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	audio, err := fafnet.NewPeriodic(4e3, 0.004, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	sources := []fafnet.Descriptor{video, audio}
	deadlines := []float64{0.040, 0.070, 0.120}

	initial := make([]float64, net.NumRings())
	for r := range initial {
		_, initial[r] = cac.RingLedger(r)
	}
	checkLedgers := func(when string) {
		t.Helper()
		if n := len(cac.Connections()); n != 0 {
			t.Fatalf("%s: %d connections still admitted", when, n)
		}
		for r := range initial {
			allocated, available := cac.RingLedger(r)
			if math.Float64bits(allocated) != math.Float64bits(0) {
				t.Errorf("%s: ring %d has %v allocated, want exactly 0", when, r, allocated)
			}
			if math.Float64bits(available) != math.Float64bits(initial[r]) {
				t.Errorf("%s: ring %d has %v available, want exactly %v", when, r, available, initial[r])
			}
		}
	}

	hosts := net.Hosts()
	id := func(h fafnet.HostID) string { return "from-" + h.String() }
	admit := func(h fafnet.HostID, pick int) bool {
		t.Helper()
		dec, err := cac.RequestAdmission(fafnet.ConnSpec{
			ID:       id(h),
			Src:      h,
			Dst:      fafnet.HostID{Ring: (h.Ring + 1 + pick%2) % 3, Index: pick % 4},
			Source:   sources[pick%len(sources)],
			Deadline: deadlines[pick%len(deadlines)],
		})
		if err != nil {
			t.Fatalf("admit %s: %v", id(h), err)
		}
		return dec.Admitted
	}

	rng := des.NewRNG(2026)
	held := make(map[fafnet.HostID]bool)
	rejected := 0
	for cycles := 0; cycles < 300; {
		h := hosts[rng.Intn(len(hosts))]
		if held[h] {
			if !cac.Release(id(h)) {
				t.Fatalf("release %s found nothing", id(h))
			}
			delete(held, h)
			cycles++ // one admission has now been admitted and released
			continue
		}
		if admit(h, rng.Intn(12)) {
			held[h] = true
		} else if rejected++; rejected > 3000 {
			t.Fatal("the churn stopped admitting")
		}
	}
	for h := range held {
		if !cac.Release(id(h)) {
			t.Fatalf("final release %s found nothing", id(h))
		}
	}
	checkLedgers("after the churn")

	// Every id admits and releases once more on the empty network: none of
	// them left anything behind.
	for _, h := range hosts {
		if !admit(h, 0) {
			t.Fatalf("%s rejected on an empty network", id(h))
		}
		if !cac.Release(id(h)) {
			t.Fatalf("release %s found nothing", id(h))
		}
	}
	checkLedgers("after the id sweep")
}
