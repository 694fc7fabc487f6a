package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"fafnet/internal/shaper"
	"fafnet/internal/topo"
	"fafnet/internal/traffic"
	"fafnet/internal/units"
)

// scenarioGen draws the randomized scenarios of the equivalence harnesses:
// one to five connections on random host pairs, a mix of the three source
// models, and allocations that span the stability threshold on purpose — some
// draws are infeasible, exercising the +Inf paths.
type scenarioGen struct {
	t   *testing.T
	net *topo.Network
	rng *rand.Rand
	// shaped puts a regulator on roughly one connection in six: their stage-0
	// chains hold a Min, lowered by the two-envelope rule, and share ports
	// with plain members.
	shaped bool
	// classes draws from fixed palettes — four sources, two shapes, buffers
	// of 0 or classBufferBits, three allocations — so record classes and the
	// keys inside their records recur, across the connections of a scenario
	// and across the scenarios one warm analyzer serves.
	classes bool
}

// classBufferBits is the finite buffer of classes mode: above the backlog of
// some palette draws and below that of others, so a buffer left out of the
// record class changes verdicts.
const classBufferBits = 80e3

func newScenarioGen(t *testing.T, net *topo.Network, seed int64) *scenarioGen {
	return &scenarioGen{t: t, net: net, rng: rand.New(rand.NewSource(seed))}
}

func (g *scenarioGen) source() traffic.Descriptor {
	var d traffic.Descriptor
	var err error
	if g.classes {
		switch g.rng.Intn(4) {
		case 0:
			d, err = traffic.NewDualPeriodic(150e3, 0.010, 30e3, 0.001, 100e6)
		case 1:
			d, err = traffic.NewPeriodic(60e3, 0.008, 100e6)
		case 2:
			d, err = traffic.NewPeriodic(40e3, 0.005, 100e6)
		default:
			d, err = traffic.NewCBR(6e6)
		}
		if err != nil {
			g.t.Fatal(err)
		}
		return d
	}
	switch g.rng.Intn(3) {
	case 0:
		c1 := 50e3 + 150e3*g.rng.Float64()
		d, err = traffic.NewDualPeriodic(c1, 0.010, c1/5, 0.001, 100e6)
	case 1:
		c := 20e3 + 80e3*g.rng.Float64()
		p := []float64{0.005, 0.008, 0.010}[g.rng.Intn(3)]
		d, err = traffic.NewPeriodic(c, p, 100e6)
	default:
		d, err = traffic.NewCBR(2e6 + 8e6*g.rng.Float64())
	}
	if err != nil {
		g.t.Fatal(err)
	}
	return d
}

// next draws scenario sc; connection ids carry prefix and sc.
func (g *scenarioGen) next(prefix string, sc int) []*Connection {
	nConns := 1 + g.rng.Intn(5)
	conns := make([]*Connection, 0, nConns)
	for i := 0; i < nConns; i++ {
		src := topo.HostID{Ring: g.rng.Intn(3), Index: g.rng.Intn(4)}
		dst := topo.HostID{Ring: g.rng.Intn(3), Index: g.rng.Intn(4)}
		if src == dst {
			dst.Index = (dst.Index + 1) % 4
		}
		route, err := g.net.Route(src, dst)
		if err != nil {
			g.t.Fatal(err)
		}
		c := &Connection{
			ConnSpec: ConnSpec{
				ID:       fmt.Sprintf("%s%dc%d", prefix, sc, i),
				Src:      src,
				Dst:      dst,
				Source:   g.source(),
				Deadline: 0.120,
			},
			Route: route,
			HS:    0.4e-3 + 2.1e-3*g.rng.Float64(),
			HR:    0.4e-3 + 2.1e-3*g.rng.Float64(),
		}
		shape := g.shaped && g.rng.Intn(6) == 0
		switch {
		case g.classes:
			hs := []float64{0.5e-3, 1.2e-3, 2.2e-3}
			c.HS, c.HR = hs[g.rng.Intn(3)], hs[g.rng.Intn(3)]
			buf := []float64{0, classBufferBits}
			c.HostBufferBits, c.IDBufferBits = buf[g.rng.Intn(2)], buf[g.rng.Intn(2)]
			if shape {
				c.Shape = &[]shaper.Spec{{SigmaBits: 40e3, RhoBps: 18e6}, {SigmaBits: 60e3, RhoBps: 24e6}}[g.rng.Intn(2)]
			}
		case shape:
			c.Shape = &shaper.Spec{
				SigmaBits: 20e3 + 40e3*g.rng.Float64(),
				RhoBps:    c.Source.LongTermRate() * (1.2 + 0.5*g.rng.Float64()),
			}
		}
		conns = append(conns, c)
	}
	return conns
}

// checkAgainstClosureOracle holds the delays an analyzer computed for conns
// to closureDelays: within units.RelTol on every connection's end-to-end
// delay, and exactly on feasibility (both infinite or both finite).
func checkAgainstClosureOracle(t *testing.T, net *topo.Network, sc int, conns []*Connection, got map[string]float64) {
	t.Helper()
	want, err := closureDelays(net, conns)
	if err != nil {
		t.Fatalf("scenario %d: closure oracle: %v", sc, err)
	}
	if len(got) != len(want) {
		t.Fatalf("scenario %d: %d delays, want %d", sc, len(got), len(want))
	}
	for id, w := range want {
		g := got[id]
		if math.IsInf(w, 1) != math.IsInf(g, 1) {
			t.Fatalf("scenario %d, conn %s: feasibility diverged: analyzer %v, closure oracle %v", sc, id, g, w)
		}
		if !math.IsInf(w, 1) && !units.WithinRel(g, w, units.RelTol) {
			t.Fatalf("scenario %d, conn %s: analyzer %v, closure oracle %v", sc, id, g, w)
		}
	}
}

// TestFusionEquivalenceRandomized is the soundness harness of the probe
// accelerator: across randomized scenarios (connection counts, placements,
// allocations, and source mixes), the analyzer — envelope fusion, flat
// lowering, the class records, MAC and mux fast paths — must agree
// with Eq. 7 on the raw closure tree (closureDelays) within units.RelTol on
// every connection's end-to-end delay, and exactly on feasibility.
func TestFusionEquivalenceRandomized(t *testing.T) {
	net := defaultNet(t)
	gen := newScenarioGen(t, net, 20250806)

	const scenarios = 120
	for sc := 0; sc < scenarios; sc++ {
		conns := gen.next("s", sc)

		optimized, err := NewAnalyzer(net, AnalysisOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := optimized.Delays(conns)
		if err != nil {
			t.Fatalf("scenario %d: optimized: %v", sc, err)
		}
		checkAgainstClosureOracle(t, net, sc, conns, got)

		// A second evaluation through the warmed records must reproduce the
		// first exactly.
		again, err := optimized.Delays(conns)
		if err != nil {
			t.Fatalf("scenario %d: warmed: %v", sc, err)
		}
		for id, g := range got {
			if a := again[id]; !sameFloatBits(a, g) {
				t.Fatalf("scenario %d, conn %s: warmed cache diverged: %v then %v", sc, id, g, a)
			}
		}
	}
}

// TestFlatEquivalenceRandomized extends the randomized harness to ports that
// mix plain and shaped members (a shaped connection's envelope is the Min of
// its bucket and its delayed input), in two modes across the same
// 120-scenario distribution:
//
//   - analyzer vs closure oracle, as above;
//   - warm vs fresh: one long-lived analyzer carries its caches and its
//     workspace across every scenario (previous connections gone, new ones
//     admitted); a delay is a function of the connection set alone, so its
//     results must be those of a fresh analyzer bit for bit.
func TestFlatEquivalenceRandomized(t *testing.T) {
	net := defaultNet(t)
	gen := newScenarioGen(t, net, 20250807)
	gen.shaped = true

	// warm is the long-lived analyzer: its caches and the workspace its port
	// sums are folded in survive all scenarios.
	warm, err := NewAnalyzer(net, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}

	const scenarios = 120
	for sc := 0; sc < scenarios; sc++ {
		checkWarmAndFresh(t, net, warm, sc, gen.next("f", sc))
	}
}

// checkWarmAndFresh evaluates conns on a fresh analyzer and on warm, holding
// the fresh delays to the closure oracle and the warm ones to the fresh ones
// bit for bit.
func checkWarmAndFresh(t *testing.T, net *topo.Network, warm *Analyzer, sc int, conns []*Connection) {
	t.Helper()
	fresh, err := NewAnalyzer(net, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := fresh.Delays(conns)
	if err != nil {
		t.Fatalf("scenario %d: fresh: %v", sc, err)
	}
	checkAgainstClosureOracle(t, net, sc, conns, got)

	// Warm vs fresh: the same set through whatever the previous scenarios
	// left behind.
	carried, err := warm.Delays(conns)
	if err != nil {
		t.Fatalf("scenario %d: warm: %v", sc, err)
	}
	for id, g := range got {
		if w := carried[id]; !sameFloatBits(w, g) {
			t.Fatalf("scenario %d, conn %s: fresh %v, warm %v", sc, id, g, w)
		}
	}
}

// FuzzDelaysAgainstClosureOracle runs the harnesses' scenario generator under
// a fuzzed seed, on the default network or (hetero) on heteroTopology, whose
// three rings differ: a receiver MAC analysed on the sender's ring would pass
// on the first and fail here. One warm analyzer per network serves every
// input of the process. Records are keyed by class, not by id, so each input
// meets whatever records, port verdicts and workspace state the earlier ones
// left; with classes set it draws from the generator's palettes, and the warm
// analyzer serves records across inputs and across connections of one class
// that differ in what the class leaves out.
func FuzzDelaysAgainstClosureOracle(f *testing.F) {
	var nets [2]*topo.Network
	var warm [2]*Analyzer
	for i, cfg := range []topo.Config{topo.Default(), heteroTopology()} {
		net, err := topo.NewNetwork(cfg)
		if err != nil {
			f.Fatal(err)
		}
		if warm[i], err = NewAnalyzer(net, AnalysisOptions{}); err != nil {
			f.Fatal(err)
		}
		nets[i] = net
	}
	f.Fuzz(func(t *testing.T, seed int64, shaped, hetero, classes bool) {
		i := 0
		if hetero {
			i = 1
		}
		gen := newScenarioGen(t, nets[i], seed)
		gen.shaped, gen.classes = shaped, classes
		checkWarmAndFresh(t, nets[i], warm[i], 0, gen.next("z", 0))
	})
}

// TestClassRecordsRandomized is the randomized harness of record classes:
// scenarios drawn from the generator's palettes, on the default network and on
// heteroTopology, through one warm analyzer per network. Connections of one
// class recur with other ids, hosts, deadlines and allocations; connections
// that differ only in a ring, a buffer or a shape recur too, and must not
// share a record. Every delay must equal a fresh analyzer's bit for bit.
func TestClassRecordsRandomized(t *testing.T) {
	for i, cfg := range []topo.Config{topo.Default(), heteroTopology()} {
		net, err := topo.NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := NewAnalyzer(net, AnalysisOptions{})
		if err != nil {
			t.Fatal(err)
		}
		gen := newScenarioGen(t, net, 20261015+int64(i))
		gen.shaped, gen.classes = true, true
		for sc := 0; sc < 60; sc++ {
			checkWarmAndFresh(t, net, warm, sc, gen.next("k", sc))
		}
	}
}

// TestEnvelopeReloweredPastTheWindow is the one later-stage case a shift of
// the upstream flat cannot serve: four bursty connections saturate a 68 Mb/s
// backbone, the second port's worst-case delay exceeds flatHorizon, and
// nothing of the upstream window is left to shift. The fold lowers the fused
// chain afresh there — over the full window, equal to the raw closure chain
// point for point, kept in the record like any other flat — and Eq. 7 on
// those envelopes agrees with closureDelays.
func TestEnvelopeReloweredPastTheWindow(t *testing.T) {
	cfg := topo.Default()
	cfg.LinkBps = 68e6
	net, err := topo.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var conns []*Connection
	for i := 0; i < 4; i++ {
		conns = append(conns, testConnOn(t, net, fmt.Sprintf("c%d", i), 0, i, 1, i, 2e-3, 2e-3))
	}
	// One member regulated: a Min envelope goes through the same branch.
	conns[3].Shape = &shaper.Spec{SigmaBits: 40e3, RhoBps: 18e6}
	a, err := NewAnalyzer(net, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	oracle := &closureOracle{net: net, conns: conns, portDelay: make(map[topo.PortID]float64)}

	var first []*traffic.Flat
	for round := 0; round < 2; round++ {
		lowered := counterValue(t, "fafnet_cac_flat_lowerings_total")
		ev, err := a.newEvaluation(conns)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range ev.ordered {
			d, err := ev.muxDelay(c.Route.Ports[1])
			if err != nil {
				t.Fatal(err)
			}
			if d <= flatHorizon {
				t.Fatalf("port %v delays by %v, within the %v window: the scenario no longer reaches the branch", c.Route.Ports[1], d, flatHorizon)
			}
			up, _, err := ev.fold(c, 2, nil, 0, needDelays)
			if err != nil {
				t.Fatal(err)
			}
			if up.ShiftCap(d, net.PortCapacity(), flatHorizon, up.Tail()) != nil {
				t.Fatalf("%s: the stage-1 window %v outlasts the port delay %v", c.ID, up.Horizon(), d)
			}
			env, _, err := ev.fold(c, 3, nil, 0, needDelays)
			if err != nil {
				t.Fatal(err)
			}
			if env.Horizon() != flatHorizon {
				t.Errorf("%s: re-lowered window %v, want the full %v", c.ID, env.Horizon(), flatHorizon)
			}
			want, err := oracle.entering(c, 2)
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k <= 300; k++ {
				pt := float64(k) * flatHorizon / 200
				if got, w := env.Bits(pt), want.Bits(pt); !units.WithinRel(got, w, units.RelTol) {
					t.Fatalf("%s: Bits(%v) = %v on the re-lowered flat, %v on the closure chain", c.ID, pt, got, w)
				}
			}
			if round == 0 {
				first = append(first, env)
			} else if env != first[i] {
				t.Errorf("%s: the second evaluation lowered stage 2 again", c.ID)
			}
		}
		if n := counterValue(t, "fafnet_cac_flat_lowerings_total") - lowered; round == 1 && n != 0 {
			t.Errorf("the warm evaluation lowered %d chains, want 0", n)
		}
	}

	got, err := a.Delays(conns)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstClosureOracle(t, net, 0, conns, got)
	for id, d := range got {
		if math.IsInf(d, 1) {
			t.Errorf("%s has no finite bound: the scenario was meant to stay feasible", id)
		}
	}
}

// unlowerable is a descriptor type from outside package traffic: Flatten has
// no rule for it.
type unlowerable struct{ traffic.Descriptor }

// TestSourceWithoutLoweringIsAnError: every envelope of an evaluation is a
// flat, so a source type Flatten cannot lower is an invalid request — an
// error from Delays and from RequestAdmission, not a verdict — and the failed
// request leaves the admitted set and both ring ledgers exactly as they were.
func TestSourceWithoutLoweringIsAnError(t *testing.T) {
	ctl := newController(t, Options{})
	if dec, err := ctl.RequestAdmission(testSpec(t, "held", 0, 0, 1, 0)); err != nil || !dec.Admitted {
		t.Fatalf("standing admission: %+v, %v", dec, err)
	}
	type ledger struct{ allocated, available float64 }
	ledgers := func() (out []ledger) {
		for r := 0; r < ctl.Network().Config().NumRings; r++ {
			al, av := ctl.RingLedger(r)
			out = append(out, ledger{al, av})
		}
		return out
	}
	before := ledgers()

	spec := testSpec(t, "opaque", 0, 1, 1, 1)
	spec.Source = unlowerable{spec.Source}
	for _, request := range []func(ConnSpec) (Decision, error){ctl.RequestAdmission, ctl.PreviewAdmission} {
		dec, err := request(spec)
		if err == nil || !strings.Contains(err.Error(), "no lowering") {
			t.Fatalf("decision %+v, error %v; want the no-lowering error", dec, err)
		}
		if errors.Is(err, errInfeasible) {
			t.Fatalf("%v reads as an infeasible allocation, want a structural error", err)
		}
	}
	if ctl.Active() != 1 || ctl.SourceBusy(spec.Src) {
		t.Errorf("the failed request changed the admitted set: %d active, source busy %v", ctl.Active(), ctl.SourceBusy(spec.Src))
	}
	for r, l := range ledgers() {
		if !sameFloatBits(l.allocated, before[r].allocated) || !sameFloatBits(l.available, before[r].available) {
			t.Errorf("ring %d ledger moved: %+v, was %+v", r, l, before[r])
		}
	}
	if !ctl.Release("held") {
		t.Fatal("the standing connection is gone")
	}

	an, err := NewAnalyzer(ctl.Network(), AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := testConn(t, "opaque", 0, 1, 1, 1, 2e-3, 2e-3)
	c.Source = unlowerable{c.Source}
	if _, err := an.Delays([]*Connection{c}); err == nil || !strings.Contains(err.Error(), "no lowering") {
		t.Fatalf("Delays: error %v, want the no-lowering error", err)
	}
}
