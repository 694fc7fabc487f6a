package signaling

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"fafnet/internal/core"
	"fafnet/internal/faultnet"
	"fafnet/internal/obs"
	"fafnet/internal/topo"
	"fafnet/internal/units"
)

// chaosProfile is one cell of the fault matrix.
type chaosProfile struct {
	name string
	opts faultnet.Options
}

// chaosProfiles enumerates the fault axes separately and combined, so a
// failure names the axis that broke. The seed is filled in per cell.
func chaosProfiles() []chaosProfile {
	return []chaosProfile{
		{"slow-fragmented", faultnet.Options{MaxLatency: 2 * time.Millisecond, ChunkWriteProb: 0.6}},
		{"resets", faultnet.Options{ResetReadProb: 0.06, ResetWriteProb: 0.06, AcceptFailEveryN: 5}},
		{"everything", faultnet.Options{
			MaxLatency: time.Millisecond, ChunkWriteProb: 0.4,
			ResetReadProb: 0.05, ResetWriteProb: 0.05, AcceptFailEveryN: 4,
		}},
	}
}

// chaosOutcome is what one worker concluded about one connection id.
type chaosOutcome int

const (
	// outcomeAbsent: the id must not be admitted at the end (it was
	// rejected, confirmed-unsent, or released).
	outcomeAbsent chaosOutcome = iota
	// outcomeUnknown: a lost response left the id's fate ambiguous and
	// resolution also failed; the id may legitimately be present or absent.
	outcomeUnknown
)

// TestChaosSignalingInvariants drives a concurrent admit/release workload
// through fault-injected connections and checks the system-level invariants
// that must survive any transport behavior: no double-admit, client and
// server views consistent, the audit log replayable to the exact server
// state, and no goroutine left behind after shutdown. The audit sink is the
// async group-sync writer, the deployment shape of fafcacd. Each cell keeps
// the lanes=1 leaf it had when the daemon could also run several analyzer
// lanes; one analyzer, the controller core.NewController builds, is the case
// it always covered.
func TestChaosSignalingInvariants(t *testing.T) {
	seeds := []int64{1, 7, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, profile := range chaosProfiles() {
		for _, seed := range seeds {
			opts := profile.opts
			opts.Seed = seed
			t.Run(fmt.Sprintf("%s/seed%d", profile.name, seed), func(t *testing.T) {
				t.Run("lanes=1", func(t *testing.T) { runChaosCell(t, opts) })
			})
		}
	}
}

// runChaosCell runs one fault-matrix cell end to end.
func runChaosCell(t *testing.T, fopts faultnet.Options) {
	goroutinesBefore := runtime.NumGoroutine()

	pipe, err := core.NewController(mustNetwork(t), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewShardedServer(pipe)
	if err != nil {
		t.Fatal(err)
	}
	var auditBuf bytes.Buffer
	asyncWriter := obs.NewAsyncAuditWriter(obs.NewAuditLog(&auditBuf), 64, true)
	srv.SetAsyncAudit(asyncWriter)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(faultnet.WrapListener(l, fopts)) }()

	const workers = 4
	ops := 6
	if testing.Short() {
		ops = 3
	}
	outcomes := make([]map[string]chaosOutcome, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		outcomes[w] = make(map[string]chaosOutcome)
		wg.Add(1)
		go func() {
			defer wg.Done()
			runChaosWorker(t, addr, w, ops, outcomes[w])
		}()
	}
	wg.Wait()

	// Shut down and require a full drain before judging state. The async
	// audit writer closes only after the server: producers stop first, then
	// the queue drains to the buffer.
	if err := srv.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Errorf("serve: %v", err)
	}
	if err := asyncWriter.Close(); err != nil {
		t.Errorf("audit writer close: %v", err)
	}

	// Invariant 1: client and server views agree. Every id a client proved
	// absent is absent; every admitted id was one a client could not rule out.
	final := make(map[string][2]float64)
	for _, c := range pipe.Connections() {
		final[c.ID] = [2]float64{c.HS, c.HR}
	}
	merged := make(map[string]chaosOutcome)
	for _, m := range outcomes {
		for id, o := range m {
			merged[id] = o
		}
	}
	for id, o := range merged {
		if _, present := final[id]; present && o == outcomeAbsent {
			t.Errorf("id %s is admitted server-side but the client proved it released or never sent", id)
		}
	}
	for id := range final {
		if o, known := merged[id]; !known || o != outcomeUnknown {
			t.Errorf("id %s is admitted server-side without a lost-response ambiguity to explain it", id)
		}
	}

	// Invariant 2: no double-admit — at most one successful admit audit
	// record per id, ever.
	records, err := obs.ReadAuditRecords(&auditBuf)
	if err != nil {
		t.Fatalf("audit log unreadable after chaos: %v", err)
	}
	admitted := make(map[string]int)
	for _, rec := range records {
		if rec.Op == string(OpAdmit) && rec.Admitted && rec.Error == "" {
			admitted[rec.ConnID]++
		}
	}
	for id, n := range admitted {
		if n > 1 {
			t.Errorf("id %s was admitted %d times — double-allocated bandwidth", id, n)
		}
	}

	// Invariant 3: the audit log replays to the exact server state (same
	// ids, same allocations) — the log never desynced from the controller.
	ctl2, err := core.NewController(mustNetwork(t), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(ctl2, records); err != nil {
		t.Fatalf("audit log does not replay after chaos: %v", err)
	}
	replayed := make(map[string][2]float64)
	for _, c := range ctl2.Connections() {
		replayed[c.ID] = [2]float64{c.HS, c.HR}
	}
	if len(replayed) != len(final) {
		t.Errorf("replay rebuilt %d connections, server holds %d", len(replayed), len(final))
	}
	for id, w := range final {
		g, ok := replayed[id]
		if !ok {
			t.Errorf("id %s admitted server-side but missing from the replayed log", id)
			continue
		}
		if !units.AlmostEq(w[0], g[0]) || !units.AlmostEq(w[1], g[1]) {
			t.Errorf("id %s allocations diverged: server HS=%v HR=%v, replay HS=%v HR=%v", id, w[0], w[1], g[0], g[1])
		}
	}

	// Invariant 4: everything spawned for this cell is gone. Other tests'
	// goroutines are accounted for by using a within-test delta.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before the cell, %d after\n%s",
				goroutinesBefore, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// mustNetwork builds the default topology.
func mustNetwork(t *testing.T) *topo.Network {
	t.Helper()
	net0, err := topo.NewNetwork(topo.Default())
	if err != nil {
		t.Fatal(err)
	}
	return net0
}

// runChaosWorker admits and releases a sequence of connections through the
// fault-injected transport, recording what it can prove about each id.
// Transport errors are expected here — the invariants live in the outcome
// bookkeeping, not in per-call success.
func runChaosWorker(t *testing.T, addr string, w, ops int, outcomes map[string]chaosOutcome) {
	client, err := DialConfig(ClientConfig{
		Addr:        addr,
		DialTimeout: 2 * time.Second,
		ReadTimeout: 5 * time.Second,
		Retry: RetryPolicy{
			MaxAttempts: 8,
			BaseDelay:   time.Millisecond,
			MaxDelay:    20 * time.Millisecond,
			Jitter:      1,
		},
	})
	if err != nil {
		// Even the first dial can lose the accept-failure lottery; without a
		// connection this worker has nothing to record.
		return
	}
	defer client.Close()

	srcRing := w % 3
	srcHost := w / 3
	dstRing := (srcRing + 1) % 3
	for op := 0; op < ops; op++ {
		id := fmt.Sprintf("w%d-op%d", w, op)
		req := videoRequest(id, srcRing, srcHost, dstRing, 0)
		_, admitErr := client.Admit(req)
		switch {
		case admitErr == nil:
			// Admitted or cleanly rejected: either way the response arrived,
			// so releasing settles the id to absent.
		case errors.Is(admitErr, ErrPossiblyCommitted):
			// Fall through to the release below: release is idempotent, so a
			// successful release round trip settles the id to absent whether
			// or not the admit committed.
		default:
			var se *ServerError
			if errors.As(admitErr, &se) {
				outcomes[id] = outcomeAbsent // the server refused; nothing committed
				continue
			}
			// Transport failure with every attempt confirmed unsent: the
			// server never saw this id.
			outcomes[id] = outcomeAbsent
			continue
		}
		if _, err := client.Release(id); err != nil {
			// The release response was lost too; the id's fate is unknown.
			outcomes[id] = outcomeUnknown
			continue
		}
		outcomes[id] = outcomeAbsent
	}
}
