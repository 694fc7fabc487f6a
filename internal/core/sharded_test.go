package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"fafnet/internal/topo"
	"fafnet/internal/traffic"
)

// shardedRandomSource draws from the same descriptor mix the analyzer
// equivalence harnesses use: dual-periodic video, periodic audio, CBR bulk.
func shardedRandomSource(t *testing.T, rng *rand.Rand) traffic.Descriptor {
	t.Helper()
	switch rng.Intn(3) {
	case 0:
		c1 := 50e3 + 150e3*rng.Float64()
		d, err := traffic.NewDualPeriodic(c1, 0.010, c1/5, 0.001, 100e6)
		if err != nil {
			t.Fatal(err)
		}
		return d
	case 1:
		c := 20e3 + 80e3*rng.Float64()
		p := []float64{0.005, 0.008, 0.010}[rng.Intn(3)]
		d, err := traffic.NewPeriodic(c, p, 100e6)
		if err != nil {
			t.Fatal(err)
		}
		return d
	default:
		d, err := traffic.NewCBR(2e6 + 8e6*rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
}

// TestShardedEquivalenceRandomized is the soundness harness of the admission
// pipeline: across randomized scenarios, the serial oracle and a Sharded fed
// the identical operation sequence must return the identical verdict and
// reason for every admit and preview, the same release outcomes, and the same
// final admitted set. The sequences deliberately include duplicate ids, busy
// source hosts, releases of absent ids, and previews interleaved with
// commits, so the snapshot/preflight paths are all compared, not just the
// happy path.
//
// Every float must agree bit for bit: the controller's analyzer carries its
// caches from one decision to the next, and a delay does not depend on what
// the analyzer analysed before. The subtest keeps the name it had when the
// controller could also run several analyzer lanes; one analyzer is the case
// it always covered.
func TestShardedEquivalenceRandomized(t *testing.T) {
	t.Run("one-lane-bit-identical", runShardedEquivalence)
}

// runShardedEquivalence drives the oracle and a Controller through the 110
// randomized scenarios, comparing every float bitwise.
func runShardedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20250808))

	const scenarios = 110
	for sc := 0; sc < scenarios; sc++ {
		net := defaultNet(t)
		ctl := newSerialOracle(t, net, Options{})
		pipe, err := NewController(net, Options{})
		if err != nil {
			t.Fatal(err)
		}

		admitted := []string{} // ids believed admitted, for releases and dup draws
		nOps := 6 + rng.Intn(10)
		for op := 0; op < nOps; op++ {
			switch k := rng.Intn(10); {
			case k < 6: // admit (sometimes a duplicate id or busy host)
				spec := ConnSpec{
					ID:       fmt.Sprintf("e%do%d", sc, op),
					Src:      topo.HostID{Ring: rng.Intn(3), Index: rng.Intn(4)},
					Dst:      topo.HostID{Ring: rng.Intn(3), Index: rng.Intn(4)},
					Source:   shardedRandomSource(t, rng),
					Deadline: []float64{0.030, 0.060, 0.120}[rng.Intn(3)],
				}
				if spec.Src == spec.Dst {
					spec.Dst.Index = (spec.Dst.Index + 1) % 4
				}
				if len(admitted) > 0 && rng.Intn(5) == 0 {
					spec.ID = admitted[rng.Intn(len(admitted))] // duplicate id
				}
				want, wantErr := ctl.decide(spec, true)
				got, gotErr := pipe.RequestAdmission(spec)
				if (wantErr != nil) != (gotErr != nil) {
					t.Fatalf("scenario %d op %d (%s): error diverged: serialized %v, sharded %v",
						sc, op, spec.ID, wantErr, gotErr)
				}
				if wantErr != nil {
					continue
				}
				compareDecisions(t, fmt.Sprintf("scenario %d op %d (%s)", sc, op, spec.ID),
					want, got, want.Delays[spec.ID], got.Delays[spec.ID])
				if want.Admitted {
					admitted = append(admitted, spec.ID)
				}
			case k < 8: // preview: full algorithm, no commit on either side
				spec := ConnSpec{
					ID:       fmt.Sprintf("e%dp%d", sc, op),
					Src:      topo.HostID{Ring: rng.Intn(3), Index: rng.Intn(4)},
					Dst:      topo.HostID{Ring: (rng.Intn(3) + 1) % 3, Index: rng.Intn(4)},
					Source:   shardedRandomSource(t, rng),
					Deadline: 0.060,
				}
				if spec.Src == spec.Dst {
					spec.Dst.Index = (spec.Dst.Index + 1) % 4
				}
				want, wantErr := ctl.decide(spec, false)
				got, gotErr := pipe.PreviewAdmission(spec)
				if (wantErr != nil) != (gotErr != nil) {
					t.Fatalf("scenario %d op %d (%s): preview error diverged: serialized %v, sharded %v",
						sc, op, spec.ID, wantErr, gotErr)
				}
				if wantErr == nil {
					compareDecisions(t, fmt.Sprintf("scenario %d op %d (%s)", sc, op, spec.ID),
						want, got, want.Delays[spec.ID], got.Delays[spec.ID])
				}
			default: // release (sometimes of an id that was never admitted)
				id := fmt.Sprintf("e%dabsent%d", sc, op)
				if len(admitted) > 0 && rng.Intn(4) != 0 {
					i := rng.Intn(len(admitted))
					id = admitted[i]
					admitted = append(admitted[:i], admitted[i+1:]...)
				}
				want := ctl.release(id)
				got := pipe.Release(id)
				if want != got {
					t.Fatalf("scenario %d op %d: Release(%s) diverged: serialized %v, sharded %v",
						sc, op, id, want, got)
				}
			}
			// The ledger derived from the snapshot against the one the oracle
			// maintains in place, on every ring after every op.
			for r, ring := range ctl.rings {
				allocated, available := pipe.RingLedger(r)
				if !sameFloatBits(allocated, ring.Allocated()) || !sameFloatBits(available, ring.Available()) {
					t.Fatalf("scenario %d op %d: ring %d ledger diverged: serialized Ω=%v avail=%v, sharded Ω=%v avail=%v",
						sc, op, r, ring.Allocated(), ring.Available(), allocated, available)
				}
			}
		}

		// The final admitted sets must be identical: same ids, same
		// allocations.
		wantConns := ctl.connections()
		gotConns := pipe.Connections()
		if len(wantConns) != len(gotConns) {
			t.Fatalf("scenario %d: serialized holds %d connections, sharded %d",
				sc, len(wantConns), len(gotConns))
		}
		for i, w := range wantConns {
			g := gotConns[i]
			if w.ID != g.ID {
				t.Fatalf("scenario %d: admitted set diverged at %d: %s vs %s", sc, i, w.ID, g.ID)
			}
			if !sameFloatBits(w.HS, g.HS) || !sameFloatBits(w.HR, g.HR) {
				t.Fatalf("scenario %d conn %s: allocations diverged: serialized HS=%v HR=%v, sharded HS=%v HR=%v",
					sc, w.ID, w.HS, w.HR, g.HS, g.HR)
			}
		}
	}
}

func sameFloatBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// compareDecisions checks the fields the oracle and the pipeline must agree
// on: verdict, reason, the allocation with its need bounds and
// availabilities, and the candidate's own delay (each side's entry for its
// own candidate). The standing connections' delays and the probe/cache counts are excluded by design: a verdict-cache
// hit returns only the candidate's delay and zero probes.
func compareDecisions(t *testing.T, where string, want, got Decision, wantDelay, gotDelay float64) {
	t.Helper()
	if want.Admitted != got.Admitted || want.Reason != got.Reason {
		t.Fatalf("%s: verdict diverged: want %v/%q, got %v/%q",
			where, want.Admitted, want.Reason, got.Admitted, got.Reason)
	}
	for _, f := range []struct {
		name      string
		want, got float64
	}{
		{"HS", want.HS, got.HS}, {"HR", want.HR, got.HR},
		{"HSMinNeed", want.HSMinNeed, got.HSMinNeed}, {"HRMinNeed", want.HRMinNeed, got.HRMinNeed},
		{"HSMaxNeed", want.HSMaxNeed, got.HSMaxNeed}, {"HRMaxNeed", want.HRMaxNeed, got.HRMaxNeed},
		{"HSMaxAvail", want.HSMaxAvail, got.HSMaxAvail}, {"HRMaxAvail", want.HRMaxAvail, got.HRMaxAvail},
		{"delay", wantDelay, gotDelay},
	} {
		if !sameFloatBits(f.want, f.got) {
			t.Fatalf("%s: %s diverged: want %v, got %v",
				where, f.name, f.want, f.got)
		}
	}
}

// TestShardedAvailabilityFloor pins the H^min_abs floor (Eq. 26–27), which
// preflight alone applies: a candidate whose sender ring, or for a route
// across the backbone whose receiver ring, has less than H^min_abs available
// is rejected with ReasonNoBandwidth before any probe, and the oracle, which
// applies the floor inline, agrees bit for bit.
func TestShardedAvailabilityFloor(t *testing.T) {
	net := defaultNet(t)
	probe, err := NewController(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, full := probe.RingLedger(1)
	// The first admit takes at least the floor from rings 1 and 2, leaving
	// each below it.
	opts := Options{HMinAbs: 0.55 * full}
	pipe, err := NewController(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctl := newSerialOracle(t, net, opts)
	mk := func(id string, src, dst topo.HostID) ConnSpec {
		d, err := traffic.NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)
		if err != nil {
			t.Fatal(err)
		}
		return ConnSpec{ID: id, Src: src, Dst: dst, Source: d, Deadline: 0.060}
	}
	for _, step := range []struct {
		spec   ConnSpec
		commit bool
		reason string
	}{
		{mk("occupant", topo.HostID{Ring: 1}, topo.HostID{Ring: 2}), true, ReasonAdmitted},
		{mk("sender-floor", topo.HostID{Ring: 1, Index: 1}, topo.HostID{Ring: 0, Index: 1}), false, ReasonNoBandwidth},
		{mk("receiver-floor", topo.HostID{Ring: 0, Index: 1}, topo.HostID{Ring: 1, Index: 1}), false, ReasonNoBandwidth},
	} {
		want, err := ctl.decide(step.spec, step.commit)
		if err != nil {
			t.Fatal(err)
		}
		decide := pipe.PreviewAdmission
		if step.commit {
			decide = pipe.RequestAdmission
		}
		got, err := decide(step.spec)
		if err != nil {
			t.Fatal(err)
		}
		id := step.spec.ID
		compareDecisions(t, id, want, got, want.Delays[id], got.Delays[id])
		if got.Reason != step.reason {
			t.Fatalf("%s: reason %q, want %q", id, got.Reason, step.reason)
		}
		if step.reason == ReasonNoBandwidth && got.Probes != 0 {
			t.Fatalf("%s: %d probes ran behind the floor", id, got.Probes)
		}
	}
}

// TestShardedVerdictCacheRecurrence pins the cache's reason for existing:
// repeating a decision problem — same admitted multiset, same candidate
// class — must hit, and a release that returns the state hash to a previous
// value must let earlier verdicts hit again. Concurrent misses on one key
// must share a single analysis: decisions take the controller's lock one at
// a time, so the first to miss seeds the entry and every later one hits it.
func TestShardedVerdictCacheRecurrence(t *testing.T) {
	net := defaultNet(t)
	pipe, err := NewController(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := func(id string) ConnSpec {
		d, err := traffic.NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)
		if err != nil {
			t.Fatal(err)
		}
		return ConnSpec{
			ID:       id,
			Src:      topo.HostID{Ring: 0, Index: 1},
			Dst:      topo.HostID{Ring: 1, Index: 1},
			Source:   d,
			Deadline: 0.060,
		}
	}
	preview := func() Decision {
		dec, err := pipe.PreviewAdmission(spec("probe"))
		if err != nil {
			t.Fatal(err)
		}
		return dec
	}

	hits, misses := mVerdictHits.Value(), mVerdictMisses.Value()
	first := preview()
	if got := mVerdictMisses.Value(); got != misses+1 {
		t.Fatalf("first preview: misses %d, want %d", got, misses+1)
	}
	again := preview()
	if got := mVerdictHits.Value(); got != hits+1 {
		t.Fatalf("repeat preview: hits %d, want %d", got, hits+1)
	}
	if first.Admitted != again.Admitted || !sameFloatBits(first.HS, again.HS) {
		t.Fatalf("cache hit changed the verdict: %+v vs %+v", first, again)
	}

	// Admit a connection (state hash moves), release it (hash returns):
	// the original verdict must hit again without a new probe run.
	if dec, err := pipe.RequestAdmission(spec("occupant")); err != nil || !dec.Admitted {
		t.Fatalf("occupant admission: %+v, %v", dec, err)
	}
	if !pipe.Release("occupant") {
		t.Fatal("occupant release")
	}
	hits = mVerdictHits.Value()
	preview()
	if got := mVerdictHits.Value(); got != hits+1 {
		t.Fatalf("post-churn preview: hits %d, want %d (state hash did not recur)", got, hits+1)
	}

	// Ten goroutines on a cold controller, eight single previews and two
	// batches of four, all of one class: one decision runs the analysis.
	cold, err := NewController(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	singles := make([]ConnSpec, 8)
	for i := range singles {
		singles[i] = spec(fmt.Sprintf("single%d", i))
	}
	batches := make([][]ConnSpec, 2)
	for b := range batches {
		for m := 0; m < 4; m++ {
			batches[b] = append(batches[b], spec(fmt.Sprintf("batch%d-%d", b, m)))
		}
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		decs = make(map[string]Decision)
	)
	keep := func(id string, dec Decision, err error) {
		if err != nil {
			t.Errorf("%s: %v", id, err)
		}
		mu.Lock()
		decs[id] = dec
		mu.Unlock()
	}
	for _, s := range singles {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dec, err := cold.PreviewAdmission(s)
			keep(s.ID, dec, err)
		}()
	}
	for _, batch := range batches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, r := range cold.PreviewAdmissionBatch(batch, nil) {
				keep(r.ID, r.Decision, r.Err)
			}
		}()
	}
	wg.Wait()

	var leader string
	for id, dec := range decs {
		if dec.Probes > 0 {
			if leader != "" {
				t.Fatalf("%s and %s both ran the analysis", leader, id)
			}
			leader = id
		}
	}
	if leader == "" {
		t.Fatal("no decision ran the analysis")
	}
	want := decs[leader]
	if !want.Admitted {
		t.Fatalf("leader %s: %+v, want an admit on the empty network", leader, want)
	}
	for id, dec := range decs {
		compareDecisions(t, fmt.Sprintf("%s against %s, which ran the analysis", id, leader),
			want, dec, want.Delays[leader], dec.Delays[id])
	}
	if len(decs) != len(singles)+len(batches)*len(batches[0]) {
		t.Fatalf("%d decisions, want %d", len(decs), len(singles)+len(batches)*len(batches[0]))
	}
}

// TestShardedBatchOrdering checks the batch entry points return results in
// input order, with two classes interleaved so that same-class members do not
// run back to back, and that the preview batch's record callback fires exactly
// once per member.
func TestShardedBatchOrdering(t *testing.T) {
	net := defaultNet(t)
	pipe, err := NewController(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id string, ring int, kbit float64) ConnSpec {
		d, err := traffic.NewDualPeriodic(kbit*1e3, 0.010, kbit*1e3/5, 0.001, 100e6)
		if err != nil {
			t.Fatal(err)
		}
		return ConnSpec{
			ID:       id,
			Src:      topo.HostID{Ring: ring, Index: 0},
			Dst:      topo.HostID{Ring: (ring + 1) % 3, Index: 0},
			Source:   d,
			Deadline: 0.060,
		}
	}
	// Two classes, interleaved.
	specs := []ConnSpec{
		mk("b0", 0, 50), mk("b1", 1, 120), mk("b2", 2, 50), mk("b3", 0, 120),
	}
	seen := map[int]int{}
	results := pipe.PreviewAdmissionBatch(specs, func(i int, dec Decision, err error) {
		seen[i]++
	})
	if len(results) != len(specs) {
		t.Fatalf("%d results for %d specs", len(results), len(specs))
	}
	for i, r := range results {
		if r.ID != specs[i].ID {
			t.Errorf("result %d is %s, want %s (input order lost)", i, r.ID, specs[i].ID)
		}
		if r.Err != nil {
			t.Errorf("member %s: %v", r.ID, r.Err)
		}
		if seen[i] != 1 {
			t.Errorf("record callback fired %d times for member %d", seen[i], i)
		}
	}
	if pipe.Active() != 0 {
		t.Errorf("preview batch admitted %d connections", pipe.Active())
	}
}

// TestShardedConcurrentHammer drives admits, previews, and releases from
// many goroutines at once (the -race configuration this file exists for)
// and then checks the global invariants: all bandwidth accounted, no
// connection left after every worker released its admissions, and every ring
// ledger back to its initial availability bit for bit (an empty admitted set
// is the initial ledger exactly, however the admissions interleaved). A
// reader goroutine checks meanwhile that every published ledger is a valid
// one.
func TestShardedConcurrentHammer(t *testing.T) {
	net := defaultNet(t)
	pipe, err := NewController(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ringAvail := func() []float64 {
		avail := make([]float64, net.NumRings())
		for r := range avail {
			_, avail[r] = pipe.RingLedger(r)
		}
		return avail
	}
	initial := ringAvail()

	const workers = 8
	iters := 12
	if testing.Short() {
		iters = 4
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for r := 0; r < net.NumRings(); r++ {
				allocated, available := pipe.RingLedger(r)
				if allocated < 0 || available < 0 || allocated+available > net.RingConfig(r).UsableTTRT()+1e-12 {
					t.Errorf("ring %d published an invalid ledger: Ω=%v avail=%v", r, allocated, available)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			d, err := traffic.NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)
			if err != nil {
				t.Error(err)
				return
			}
			held := []string{}
			for i := 0; i < iters; i++ {
				id := fmt.Sprintf("h%d-%d", w, i)
				spec := ConnSpec{
					ID: id,
					// Partition sources by worker so HostBusy rejections are
					// deterministic per worker, not a cross-worker race.
					Src:      topo.HostID{Ring: w % 3, Index: w / 3},
					Dst:      topo.HostID{Ring: (w + 1 + rng.Intn(2)) % 3, Index: rng.Intn(4)},
					Source:   d,
					Deadline: 0.060,
				}
				dec, err := pipe.RequestAdmission(spec)
				if err != nil {
					t.Errorf("worker %d admit %s: %v", w, id, err)
					return
				}
				if dec.Admitted {
					held = append(held, id)
				}
				if _, err := pipe.PreviewAdmission(ConnSpec{
					ID: id + "-p", Src: spec.Src, Dst: spec.Dst, Source: d, Deadline: 0.060,
				}); err != nil {
					t.Errorf("worker %d preview: %v", w, err)
					return
				}
				// Release with probability 2/3 so the source host frees up
				// and later iterations re-admit — churn, not a frozen set.
				if len(held) > 0 && rng.Intn(3) != 0 {
					if !pipe.Release(held[0]) {
						t.Errorf("worker %d lost its own admission %s", w, held[0])
						return
					}
					held = held[1:]
				}
			}
			for _, id := range held {
				if !pipe.Release(id) {
					t.Errorf("worker %d final release %s failed", w, id)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-readerDone

	if got := pipe.Active(); got != 0 {
		t.Fatalf("hammer left %d connections admitted", got)
	}
	final := ringAvail()
	for i := range final {
		if !sameFloatBits(final[i], initial[i]) {
			t.Errorf("ring %d availability drifted: %v before, %v after", i, initial[i], final[i])
		}
	}
}
