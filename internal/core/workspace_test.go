package core

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"fafnet/internal/obs"
	"fafnet/internal/shaper"
	"fafnet/internal/traffic"
)

// standingSix returns six connections on distinct source hosts of the default
// grid, all crossing the backbone, at a feasible allocation.
func standingSix(t *testing.T) []*Connection {
	t.Helper()
	net := defaultNet(t)
	var conns []*Connection
	for i, pair := range [][4]int{{0, 0, 1, 0}, {0, 1, 2, 1}, {1, 0, 2, 0}, {1, 1, 0, 2}, {2, 0, 0, 3}, {2, 1, 1, 2}} {
		conns = append(conns, testConnOn(t, net, fmt.Sprintf("standing-%d", i), pair[0], pair[1], pair[2], pair[3], 2e-3, 2e-3))
	}
	return conns
}

// TestUniqueIDsShareTheClassRecord feeds one analyzer 300 unique candidate
// ids against six standing connections — the churn regime, where a client
// names every request afresh. Each candidate is of standing-0's class (the
// same source, rings and buffers from other hosts), so once the standing set
// has been evaluated no sender MAC is analysed again, and the analyzer holds
// one record per class drawn, never one per id.
func TestUniqueIDsShareTheClassRecord(t *testing.T) {
	standing := standingSix(t)
	net := defaultNet(t)
	a, err := NewAnalyzer(net, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Delays(standing); err != nil {
		t.Fatal(err)
	}
	if len(a.conns) != len(standing) {
		t.Fatalf("%d records after the standing set, want one per ring pair, %d", len(a.conns), len(standing))
	}
	for i := 0; i < 300; i++ {
		cand := testConnOn(t, net, fmt.Sprintf("unique-%d", i), 0, 2, 1, 3, 2e-3, 2e-3)
		before := a.CacheStats()
		if _, err := a.Delays(append(standing[:len(standing):len(standing)], cand)); err != nil {
			t.Fatal(err)
		}
		if d := a.CacheStats().Sub(before); d.MACMisses != 0 {
			t.Fatalf("evaluation %d: %d sender-MAC misses, want 0: the candidate's class record was not served", i, d.MACMisses)
		}
		if len(a.conns) != len(standing) {
			t.Fatalf("evaluation %d: %d records, want the %d classes drawn", i, len(a.conns), len(standing))
		}
	}
}

// TestDistinctClassesStayBounded feeds one analyzer more classes than
// maxClasses — a candidate per distinct Periodic budget against the standing
// six — so the class map fills and is cleared. It never holds more than
// maxClasses records, and every evaluation, before a clear and after, equals
// a fresh analyzer's bit for bit (and the closure oracle).
func TestDistinctClassesStayBounded(t *testing.T) {
	standing := standingSix(t)
	net := defaultNet(t)
	a, err := NewAnalyzer(net, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const drawn = 300
	for i := 0; i < drawn; i++ {
		src, err := traffic.NewPeriodic(20e3+100*float64(i), 0.008, 100e6)
		if err != nil {
			t.Fatal(err)
		}
		cand := testConnOn(t, net, fmt.Sprintf("class-%d", i), 0, 2, 1, 3, 2e-3, 2e-3)
		cand.Source = src
		checkWarmAndFresh(t, net, a, i, append(standing[:len(standing):len(standing)], cand))
		if len(a.conns) > maxClasses {
			t.Fatalf("evaluation %d: %d records, bound %d", i, len(a.conns), maxClasses)
		}
	}
	if len(a.conns) >= drawn {
		t.Fatalf("%d records after %d classes: the bound never cleared the map", len(a.conns), drawn)
	}
}

// TestOneIDThroughManyClasses is what a record keyed by id had to guard with
// a spec comparison: one id through one warm analyzer under source A, then
// B, then shaped, then with buffers and without, then twice each under a
// traffic.Min and a traffic.Aggregate source whose members change under the
// same id. Every evaluation equals a fresh analyzer's, and the Min and
// Aggregate sources — they hold slices, so they cannot key a map — never
// enter the class map.
func TestOneIDThroughManyClasses(t *testing.T) {
	standing := standingSix(t)
	net := defaultNet(t)
	a, err := NewAnalyzer(net, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	periodic := func(c, p float64) traffic.Descriptor {
		d, err := traffic.NewPeriodic(c, p, 100e6)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	minOf := func(x, y traffic.Descriptor) traffic.Descriptor {
		d, err := traffic.NewMin(x, y)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	srcA, srcB := periodic(60e3, 0.008), periodic(90e3, 0.010)
	steps := []func(c *Connection){
		func(c *Connection) { c.Source = srcA },
		func(c *Connection) { c.Source = srcB },
		func(c *Connection) { c.Shape = &shaper.Spec{SigmaBits: 40e3, RhoBps: 18e6} },
		// Buffers that bind: the class with them has no finite bound.
		func(c *Connection) { c.HostBufferBits, c.IDBufferBits = 80e3, 80e3 },
		func(c *Connection) { c.HostBufferBits, c.IDBufferBits = 0, 0 },
		func(c *Connection) { c.Source = minOf(srcA, periodic(30e3, 0.005)) },
		func(c *Connection) { c.Source = minOf(srcB, periodic(50e3, 0.005)) },
		func(c *Connection) { c.Source = traffic.NewAggregate(srcA, periodic(10e3, 0.010)) },
		func(c *Connection) { c.Source = traffic.NewAggregate(srcB, periodic(20e3, 0.020)) },
	}
	cand := testConnOn(t, net, "same", 0, 2, 1, 3, 2e-3, 2e-3)
	for i, step := range steps {
		step(cand)
		checkWarmAndFresh(t, net, a, i, append(standing[:len(standing):len(standing)], cand))
		for k := range a.conns {
			switch k.source.(type) {
			case traffic.Min, traffic.Aggregate:
				t.Fatalf("step %d: a %T source keys a record", i, k.source)
			}
		}
	}
}

// counterValue reads one unlabelled counter of the process-wide registry off
// its Prometheus exposition, the one view other packages' counters have.
func counterValue(t *testing.T, name string) uint64 {
	t.Helper()
	var b bytes.Buffer
	if err := obs.Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == name {
			v, err := strconv.ParseUint(f[1], 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no counter %s in the registry", name)
	return 0
}

// TestWarmEvaluationRunsNoAnalysis: everything an evaluation computes at a
// MAC or a hop is a function of keys the class records hold, so evaluating an
// unchanged set again runs no MAC analysis and lowers nothing, is handed the
// very flats of the first evaluation at every server boundary — a stage-cache
// hit is pointer identity, which is what the records' later hops key by — and
// allocates little more than its own state. No verdict of a FIFO port is kept
// across evaluations: each walks every occupied port once, no more, over the
// members' flats.
func TestWarmEvaluationRunsNoAnalysis(t *testing.T) {
	standing := standingSix(t)
	// One member behind a regulator: its Min envelope lowers like any other,
	// so its hops and its receiver-MAC verdict are cached too.
	standing[3].Shape = &shaper.Spec{SigmaBits: 40e3, RhoBps: 18e6}
	a, err := NewAnalyzer(defaultNet(t), AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Delays(standing); err != nil {
		t.Fatal(err)
	}
	ev, err := a.newEvaluation(standing)
	if err != nil {
		t.Fatal(err)
	}
	occupied := uint64(0)
	for p := 0; p+1 < len(ev.memberBase); p++ {
		if ev.memberBase[p+1] > ev.memberBase[p] {
			occupied++
		}
	}
	if occupied == 0 {
		t.Fatal("no standing connection crosses a port")
	}

	counters := []string{"fafnet_fddi_mac_analyses_total", "fafnet_atm_mux_analyses_total", "fafnet_cac_flat_lowerings_total"}
	want := []uint64{0, occupied, 0}
	before := make([]uint64, len(counters))
	for i, name := range counters {
		before[i] = counterValue(t, name)
	}
	if _, err := a.Delays(standing); err != nil {
		t.Fatal(err)
	}
	for i, name := range counters {
		if d := counterValue(t, name) - before[i]; d != want[i] {
			t.Errorf("a warm evaluation added %d to %s, want %d", d, name, want[i])
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := a.Delays(standing); err != nil {
			t.Error(err)
		}
	})
	if allocs > 100 {
		t.Errorf("a warm Delays over %d connections allocates %v times, want at most 100", len(standing), allocs)
	}

	var first []*traffic.Flat
	for round := 0; round < 2; round++ {
		ev, err := a.newEvaluation(standing)
		if err != nil {
			t.Fatal(err)
		}
		var flats []*traffic.Flat
		for _, c := range ev.ordered {
			for stage := 0; stage <= len(c.Route.Ports); stage++ {
				f, _, err := ev.fold(c, stage+1, nil, 0, needDelays)
				if err != nil {
					t.Fatal(err)
				}
				flats = append(flats, f)
			}
		}
		if round == 0 {
			first = flats
		} else if !slices.Equal(flats, first) {
			t.Errorf("the second evaluation was handed other flats than the first:\n%p\n%p", first, flats)
		}
	}
}

// TestAnalyzersDoNotShareScratch runs two analyzers on two goroutines over the
// same network and connection set (under -race in `make race` and CI): every
// grid, breakpoint list and scan table comes from the analyzer's own
// workspace, so the runs neither race nor disturb each other's results.
func TestAnalyzersDoNotShareScratch(t *testing.T) {
	standing := standingSix(t)
	net := defaultNet(t)
	ref, err := NewAnalyzer(net, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Connections are only read by an evaluation, so the goroutines share them.
	allocs := []float64{1.6e-3, 2e-3, 2.4e-3, 3e-3, 1.3e-3}
	const rounds = 40
	sets := make([][]*Connection, rounds)
	want := make([]map[string]float64, rounds)
	for r := range sets {
		cand := testConnOn(t, net, "probe", 0, 2, 1, 3, allocs[r%len(allocs)], allocs[(r+2)%len(allocs)])
		sets[r] = append(standing[:len(standing):len(standing)], cand)
		if want[r], err = ref.Delays(sets[r]); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		a, err := NewAnalyzer(net, AnalysisOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got, err := a.Delays(sets[r])
				if err != nil {
					t.Error(err)
					return
				}
				for id, d := range want[r] {
					if got[id] != d {
						t.Errorf("analyzer %d, round %d: delay of %q = %v, sequential reference %v", g, r, id, got[id], d)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
