package core

import (
	"math"
	"strings"
	"testing"

	"fafnet/internal/des"
	"fafnet/internal/units"
)

// loadedController returns a controller with two admitted competitors, so
// region probes see nontrivial coupling.
func loadedController(t *testing.T) *Controller {
	t.Helper()
	ctl := newController(t, Options{})
	for i, pair := range [][4]int{{0, 1, 1, 1}, {1, 2, 0, 2}} {
		spec := testSpec(t, fmtID("bg", i), pair[0], pair[1], pair[2], pair[3])
		spec.Deadline = 0.035
		dec, err := ctl.RequestAdmission(spec)
		if err != nil || !dec.Admitted {
			t.Fatalf("background admission %d: %v %v", i, err, dec.Reason)
		}
	}
	return ctl
}

// TestFeasibleRegionConvexity samples pairs of feasible allocations and
// verifies their midpoint is feasible — the empirical content of Theorem 3.
func TestFeasibleRegionConvexity(t *testing.T) {
	ctl := loadedController(t)
	spec := testSpec(t, "probe", 0, 0, 1, 0)
	spec.Deadline = 0.030

	_, hsMax := ctl.RingLedger(0)
	_, hrMax := ctl.RingLedger(1)
	rng := des.NewRNG(17)

	var feasible [][2]float64
	for len(feasible) < 12 {
		hs := rng.Uniform(0.1*hsMax, hsMax)
		hr := rng.Uniform(0.1*hrMax, hrMax)
		ok, err := ctl.FeasibleAllocation(spec, hs, hr)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			feasible = append(feasible, [2]float64{hs, hr})
		}
	}
	for i := 0; i < len(feasible); i++ {
		for j := i + 1; j < len(feasible); j++ {
			midHS := (feasible[i][0] + feasible[j][0]) / 2
			midHR := (feasible[i][1] + feasible[j][1]) / 2
			ok, err := ctl.FeasibleAllocation(spec, midHS, midHR)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("midpoint of feasible points (%v,%v) and (%v,%v) infeasible at (%v,%v)",
					feasible[i][0], feasible[i][1], feasible[j][0], feasible[j][1], midHS, midHR)
			}
		}
	}
}

// TestFeasibleAllocationStructuralErrors: a request the analysis cannot
// evaluate is an error, not "infeasible" — the same answer RequestAdmission
// gives for it.
func TestFeasibleAllocationStructuralErrors(t *testing.T) {
	ctl := loadedController(t)
	_, hsMax := ctl.RingLedger(0)
	_, hrMax := ctl.RingLedger(1)
	fresh := testSpec(t, "probe", 0, 0, 1, 0)
	foreign := fresh
	foreign.Source = unlowerable{fresh.Source}
	for _, tc := range []struct {
		name   string
		spec   ConnSpec
		hs, hr float64
		want   string
	}{
		{"id already admitted", testSpec(t, "bg0", 0, 0, 1, 0), hsMax / 2, hrMax / 2, "duplicate connection id"},
		{"no sender allocation", fresh, 0, hrMax / 2, "no sender allocation"},
		{"source with no flat lowering", foreign, hsMax / 2, hrMax / 2, "no lowering"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ok, err := ctl.FeasibleAllocation(tc.spec, tc.hs, tc.hr)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("FeasibleAllocation = (%v, %v), want an error containing %q", ok, err, tc.want)
			}
		})
	}
}

// TestBetaInterpolationIdentity checks Eq. 35–36 exactly: the committed
// allocation is min_need + β·(max_need − min_need) per component.
func TestBetaInterpolationIdentity(t *testing.T) {
	for _, beta := range []float64{0, 0.3, 0.5, 0.8, 1} {
		ctl := newController(t, Options{Beta: beta, BetaSet: true})
		dec, err := ctl.RequestAdmission(testSpec(t, "c1", 0, 0, 1, 0))
		if err != nil || !dec.Admitted {
			t.Fatalf("beta=%v: %v %v", beta, err, dec.Reason)
		}
		wantHS := dec.HSMinNeed + beta*(dec.HSMaxNeed-dec.HSMinNeed)
		wantHR := dec.HRMinNeed + beta*(dec.HRMaxNeed-dec.HRMinNeed)
		if !units.WithinRel(dec.HS, wantHS, 1e-9) || !units.WithinRel(dec.HR, wantHR, 1e-9) {
			t.Errorf("beta=%v: allocation (%v,%v), want Eq.35–36 point (%v,%v)",
				beta, dec.HS, dec.HR, wantHS, wantHR)
		}
	}
}

// TestMoreBandwidthNeverHurtsDelays probes the monotonicity the max_need
// search relies on: along the proportional segment, the candidate's delay
// is non-increasing.
func TestMoreBandwidthNeverHurtsDelays(t *testing.T) {
	ctl := loadedController(t)
	net := ctl.Network()
	an, err := NewAnalyzer(net, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	existing := ctl.Connections()
	probeConn := testConnOn(t, net, "probe", 0, 0, 1, 0, 0, 0)

	_, hsMax := ctl.RingLedger(0)
	_, hrMax := ctl.RingLedger(1)
	prev := math.Inf(1)
	for _, alpha := range []float64{0.2, 0.35, 0.5, 0.75, 1.0} {
		probeConn.HS = alpha * hsMax
		probeConn.HR = alpha * hrMax
		delays, err := an.Delays(append(append([]*Connection{}, existing...), probeConn))
		if err != nil {
			t.Fatal(err)
		}
		d := delays["probe"]
		if math.IsInf(d, 1) {
			continue // below stability floor at small alpha
		}
		if d > prev*(1+1e-9) {
			t.Errorf("alpha=%v: probe delay %v above %v at smaller allocation", alpha, d, prev)
		}
		prev = d
	}
}

// TestHostBufferConstrainedAdmission exercises the Theorem 1 buffer-overflow
// path through the full CAC: a tiny source buffer forces rejection, a
// sufficient one admits.
func TestHostBufferConstrainedAdmission(t *testing.T) {
	tiny := testSpec(t, "c1", 0, 0, 1, 0)
	tiny.HostBufferBits = 5e3 // smaller than one C2 burst
	ctl := newController(t, Options{})
	dec, err := ctl.RequestAdmission(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Admitted {
		t.Fatal("admission with an overflowing source buffer")
	}
	if dec.Reason != ReasonInfeasible {
		t.Errorf("Reason = %q", dec.Reason)
	}

	roomy := testSpec(t, "c2", 0, 0, 1, 0)
	roomy.HostBufferBits = 4e6
	ctl2 := newController(t, Options{})
	dec, err = ctl2.RequestAdmission(roomy)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Admitted {
		t.Errorf("admission with a 4 Mbit buffer rejected: %s", dec.Reason)
	}
}

// TestIDBufferConstrainedAdmission mirrors the buffer test at the receiving
// interface device.
func TestIDBufferConstrainedAdmission(t *testing.T) {
	tight := testSpec(t, "c1", 0, 0, 1, 0)
	tight.IDBufferBits = 5e3
	ctl := newController(t, Options{})
	dec, err := ctl.RequestAdmission(tight)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Admitted {
		t.Fatal("admission with an overflowing reassembly buffer")
	}
}
