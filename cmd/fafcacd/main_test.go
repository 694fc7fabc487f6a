package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"fafnet/internal/scenario"
	"fafnet/internal/signaling"
)

// daemonMainEnv makes a re-executed test binary run the daemon's real main
// instead of the test suite, so the signal path can be exercised end to end.
const daemonMainEnv = "FAFCACD_DAEMON_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(daemonMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// daemon is a serve() instance under test.
type daemon struct {
	addrs serveAddrs
	stop  context.CancelFunc
	done  chan error
}

// shutdown cancels the daemon's context (the test's SIGTERM) and waits for
// the drain to finish.
func (d *daemon) shutdown(t *testing.T) {
	t.Helper()
	d.stop()
	select {
	case err := <-d.done:
		if err != nil {
			t.Fatalf("serve returned %v after shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain after cancellation")
	}
}

// startDaemon runs serve with ephemeral ports and waits for readiness.
func startDaemon(t *testing.T, cfg serveConfig) *daemon {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	if cfg.Beta == 0 {
		cfg.Beta = 0.5
	}
	if cfg.Rule == "" {
		cfg.Rule = "proportional"
	}
	if cfg.DrainGrace == 0 {
		cfg.DrainGrace = 5 * time.Second
	}
	ctx, stop := context.WithCancel(context.Background())
	t.Cleanup(stop)
	ready := make(chan serveAddrs, 1)
	d := &daemon{stop: stop, done: make(chan error, 1)}
	go func() { d.done <- serve(ctx, cfg, ready) }()
	select {
	case d.addrs = <-ready:
		return d
	case err := <-d.done:
		t.Fatalf("serve failed before listening: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon never became ready")
	}
	panic("unreachable")
}

func admitRequest(id string, srcRing, dstRing int) scenario.Request {
	return scenario.Request{
		ID: id, SrcRing: srcRing, SrcHost: 0, DstRing: dstRing, DstHost: 0,
		DeadlineMillis: 60,
		Source:         scenario.Source{Type: "dualPeriodic", C1Kbit: 50, P1Millis: 10, C2Kbit: 10, P2Millis: 1},
	}
}

func admitV1(t *testing.T, addr string) signaling.Decision {
	t.Helper()
	client, err := signaling.Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	dec, err := client.Admit(admitRequest("v1", 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

// reportByID fetches the daemon's admitted-connection report, keyed by id.
func reportByID(t *testing.T, addr string) map[string]signaling.ConnReport {
	t.Helper()
	client, err := signaling.Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	report, err := client.Report()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]signaling.ConnReport, len(report))
	for _, r := range report {
		out[r.ID] = r
	}
	return out
}

func TestServeAndAdmit(t *testing.T) {
	d := startDaemon(t, serveConfig{})
	if d.addrs.Metrics != "" {
		t.Errorf("metrics address %q without -metrics-addr", d.addrs.Metrics)
	}
	if dec := admitV1(t, d.addrs.Signaling); !dec.Admitted {
		t.Fatalf("rejected: %s", dec.Reason)
	}
}

func TestMetricsEndpointServesAdmissionCounters(t *testing.T) {
	d := startDaemon(t, serveConfig{MetricsAddr: "127.0.0.1:0"})
	if d.addrs.Metrics == "" {
		t.Fatal("no metrics address")
	}
	if dec := admitV1(t, d.addrs.Signaling); !dec.Admitted {
		t.Fatalf("rejected: %s", dec.Reason)
	}

	get := func(path string) (string, string) {
		resp, err := http.Get("http://" + d.addrs.Metrics + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ctype := get("/metrics")
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ctype)
	}
	// The admission just made must be visible. Counters are cumulative across
	// the test binary, so assert presence and a sane exposition shape rather
	// than exact values.
	for _, want := range []string{
		"# TYPE fafnet_cac_decisions_total counter",
		`fafnet_signaling_requests_total{op="admit"}`,
		`fafnet_cac_decide_seconds_bucket{le="+Inf"}`,
		"fafnet_cac_cache_mac_misses_total",
		"fafnet_cac_active_connections 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	spans, _ := get("/debug/spans")
	var recs []struct {
		Name    string  `json:"name"`
		Seconds float64 `json:"seconds"`
	}
	if err := json.Unmarshal([]byte(spans), &recs); err != nil {
		t.Fatalf("/debug/spans is not a JSON array: %v\n%s", err, spans)
	}
	var sawDecide bool
	for _, r := range recs {
		if r.Name == "core.decide" && r.Seconds > 0 {
			sawDecide = true
		}
	}
	if !sawDecide {
		t.Errorf("no core.decide span in /debug/spans: %s", spans)
	}

	if vars, _ := get("/debug/vars"); !strings.Contains(vars, "memstats") {
		t.Error("/debug/vars lacks memstats")
	}
	if idx, _ := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Error("/debug/pprof/ lacks profile index")
	}
}

func TestAuditLogFlagWritesRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	d := startDaemon(t, serveConfig{AuditLog: path})
	if dec := admitV1(t, d.addrs.Signaling); !dec.Admitted {
		t.Fatalf("rejected: %s", dec.Reason)
	}
	// The audit writer is asynchronous: the response can reach the client
	// before the record reaches the file. A graceful stop drains the queue.
	d.stop()
	if err := <-d.done; err != nil {
		t.Fatalf("serve: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	n := 0
	for sc.Scan() {
		n++
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("audit line %d invalid: %v", n, err)
		}
		if rec["op"] != "admit" || rec["connId"] != "v1" {
			t.Errorf("unexpected record: %v", rec)
		}
	}
	if n != 1 {
		t.Errorf("got %d audit records, want 1", n)
	}
}

// TestServeStopsEveryGoroutine runs the daemon with both surfaces that
// start goroutines of their own, the metrics listener and the async audit
// writer, drives one admit and one scrape, cancels, and requires the
// goroutine count back at its starting value: serve joins all it starts.
func TestServeStopsEveryGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	d := startDaemon(t, serveConfig{MetricsAddr: "127.0.0.1:0", AuditLog: filepath.Join(t.TempDir(), "audit.jsonl")})
	if dec := admitV1(t, d.addrs.Signaling); !dec.Admitted {
		t.Fatalf("rejected: %s", dec.Reason)
	}
	// The default transport keeps the scrape's connection open: serve must
	// close it, or its server-side goroutine outlives the daemon.
	resp, err := http.Get("http://" + d.addrs.Metrics + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	d.shutdown(t)
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before serve, %d after it returned\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestGracefulShutdownKeepsAuditTail is the regression test for the lost
// audit tail: the last record written before a SIGTERM-triggered drain must
// be intact and parseable on disk after the daemon exits.
func TestGracefulShutdownKeepsAuditTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	d := startDaemon(t, serveConfig{AuditLog: path})
	if dec := admitV1(t, d.addrs.Signaling); !dec.Admitted {
		t.Fatalf("rejected: %s", dec.Reason)
	}
	d.shutdown(t)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 1 {
		t.Fatalf("audit log holds %d records after shutdown, want 1", len(lines))
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
		t.Fatalf("pre-shutdown audit tail is torn: %v\n%s", err, lines[len(lines)-1])
	}
	if rec["connId"] != "v1" {
		t.Errorf("tail record = %v, want the v1 admit", rec)
	}
}

// TestKillAndRecoverRoundTrip is the crash-recovery round trip: admit a
// workload, stop the daemon, restart it with -recover pointing at the audit
// log, and require the identical admitted set with identical delay bounds.
func TestKillAndRecoverRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	d1 := startDaemon(t, serveConfig{AuditLog: path})
	client, err := signaling.Dial(d1.addrs.Signaling, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	admits := []struct {
		id               string
		srcRing, dstRing int
	}{{"v1", 0, 1}, {"v2", 1, 2}, {"v3", 2, 0}}
	for _, a := range admits {
		dec, err := client.Admit(admitRequest(a.id, a.srcRing, a.dstRing))
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Admitted {
			t.Fatalf("%s rejected: %s", a.id, dec.Reason)
		}
	}
	if ok, err := client.Release("v2"); err != nil || !ok {
		t.Fatalf("release v2: %v %v", ok, err)
	}
	client.Close()
	before := reportByID(t, d1.addrs.Signaling)
	d1.shutdown(t)

	// Restart, recovering from (and continuing to append to) the same log.
	d2 := startDaemon(t, serveConfig{AuditLog: path, Recover: path})
	after := reportByID(t, d2.addrs.Signaling)
	if len(after) != len(before) {
		t.Fatalf("recovered %d connections, want %d (%v vs %v)", len(after), len(before), after, before)
	}
	for id, w := range before {
		g, ok := after[id]
		if !ok {
			t.Errorf("connection %s lost across recovery", id)
			continue
		}
		if g != w {
			t.Errorf("connection %s changed across recovery: %+v vs %+v", id, g, w)
		}
	}
	// The recovered daemon keeps auditing into the same log: a new admit must
	// append, and a second recovery must replay the whole history.
	client2, err := signaling.Dial(d2.addrs.Signaling, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if dec, err := client2.Admit(admitRequest("v4", 1, 0)); err != nil || !dec.Admitted {
		t.Fatalf("post-recovery admit: %+v %v", dec, err)
	}
	client2.Close()
	d2.shutdown(t)

	d3 := startDaemon(t, serveConfig{Recover: path})
	final := reportByID(t, d3.addrs.Signaling)
	if len(final) != 3 {
		t.Fatalf("second recovery found %d connections, want 3 (v1, v3, v4): %v", len(final), final)
	}
}

func TestRecoverMissingLogFailsFast(t *testing.T) {
	cfg := serveConfig{
		Addr: "127.0.0.1:0", Beta: 0.5, Rule: "proportional",
		Recover: filepath.Join(t.TempDir(), "no-such-audit.jsonl"),
	}
	err := serve(context.Background(), cfg, nil)
	if err == nil || !strings.Contains(err.Error(), "recover") {
		t.Fatalf("recovery from a missing log should fail fast, got %v", err)
	}
}

// TestRecoverDivergentLogFailsBeforeListening: -recover replays straight onto
// the serving pipeline, so a log that stops reproducing part-way — here the
// middle admit claims another β — must fail serve before the daemon listens,
// not leave it serving the records that came before.
func TestRecoverDivergentLogFailsBeforeListening(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	d := startDaemon(t, serveConfig{AuditLog: path})
	client, err := signaling.Dial(d.addrs.Signaling, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []string{"v1", "v2", "v3"} {
		if dec, err := client.Admit(admitRequest(id, i, (i+1)%3)); err != nil || !dec.Admitted {
			t.Fatalf("admit %s: %+v %v", id, dec, err)
		}
	}
	client.Close()
	d.shutdown(t)

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if len(lines) != 3 || !bytes.Contains(lines[1], []byte(`"beta":0.5`)) {
		t.Fatalf("unexpected audit log:\n%s", raw)
	}
	lines[1] = bytes.Replace(lines[1], []byte(`"beta":0.5`), []byte(`"beta":0.75`), 1)
	if err := os.WriteFile(path, append(bytes.Join(lines, []byte("\n")), '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	// Were the recovery to go through, serve would listen until the context
	// expires and then return nil.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ready := make(chan serveAddrs, 1)
	err = serve(ctx, serveConfig{Addr: "127.0.0.1:0", Beta: 0.5, Rule: "proportional", Recover: path}, ready)
	if err == nil || !strings.Contains(err.Error(), "record 2") {
		t.Fatalf("recovery from a log whose second record diverges returned %v, want a replay error naming it", err)
	}
	select {
	case addrs := <-ready:
		t.Fatalf("daemon listened on %s after a failed recovery", addrs.Signaling)
	default:
	}
}

// TestSigtermDrainsSubprocess exercises the real signal path end to end: the
// daemon runs as a child process, receives an actual SIGTERM, and must exit
// zero with its audit log intact.
func TestSigtermDrainsSubprocess(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test skipped in -short mode")
	}
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	cmd := exec.Command(os.Args[0],
		"-addr", "127.0.0.1:0", "-audit-log", path, "-drain-grace", "5s")
	cmd.Env = append(os.Environ(), daemonMainEnv+"=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The daemon prints its bound address on the first line.
	sc := bufio.NewScanner(stdout)
	var addr string
	for sc.Scan() {
		line := sc.Text()
		if i := strings.LastIndex(line, " on "); strings.HasPrefix(line, "fafcacd: serving") && i >= 0 {
			addr = line[i+len(" on "):]
			break
		}
	}
	if addr == "" {
		t.Fatal("daemon never announced its address")
	}
	if dec := admitV1(t, addr); !dec.Admitted {
		t.Fatalf("rejected: %s", dec.Reason)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("daemon exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon ignored SIGTERM")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"connId":"v1"`) {
		t.Errorf("audit log lost the pre-shutdown admit:\n%s", data)
	}
}

func TestServeBadRule(t *testing.T) {
	if err := serve(context.Background(), serveConfig{Addr: "127.0.0.1:0", Beta: 0.5, Rule: "sorcery"}, nil); err == nil {
		t.Fatal("bad rule should fail fast")
	}
}

func TestServeBadAddr(t *testing.T) {
	if err := serve(context.Background(), serveConfig{Addr: "256.256.256.256:1", Beta: 0.5, Rule: "proportional"}, nil); err == nil {
		t.Fatal("unusable address should fail")
	}
}

func TestServeBadAuditPath(t *testing.T) {
	cfg := serveConfig{
		Addr: "127.0.0.1:0", Beta: 0.5, Rule: "proportional",
		AuditLog: filepath.Join(t.TempDir(), "no", "such", "dir", "audit.jsonl"),
	}
	err := serve(context.Background(), cfg, nil)
	if err == nil || !strings.Contains(err.Error(), "audit log") {
		t.Fatalf("unusable audit path should fail fast, got %v", err)
	}
}

func TestServeBadMetricsAddr(t *testing.T) {
	cfg := serveConfig{
		Addr: "127.0.0.1:0", Beta: 0.5, Rule: "proportional",
		MetricsAddr: "256.256.256.256:1",
	}
	err := serve(context.Background(), cfg, nil)
	if err == nil || !strings.Contains(err.Error(), "metrics listener") {
		t.Fatalf("unusable metrics address should fail fast, got %v", err)
	}
}

// TestOperationsFlagsMatchDaemon fails when OPERATIONS.md's Flags table and
// the daemon's registered flags drift apart, in either direction: every flag
// registerFlags binds must have a row, and every row must name a flag the
// daemon accepts.
func TestOperationsFlagsMatchDaemon(t *testing.T) {
	doc, err := os.ReadFile("../../OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	section := string(doc)
	start := strings.Index(section, "\n## Flags\n")
	if start < 0 {
		t.Fatal("OPERATIONS.md has no \"## Flags\" section")
	}
	section = section[start+len("\n## Flags\n"):]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	documented := make(map[string]bool)
	for _, line := range strings.Split(section, "\n") {
		if rest, ok := strings.CutPrefix(line, "| `-"); ok {
			name, _, _ := strings.Cut(rest, "`")
			documented[name] = true
		}
	}
	fs := flag.NewFlagSet("fafcacd", flag.ContinueOnError)
	registerFlags(fs, &serveConfig{})
	registered := make(map[string]bool)
	fs.VisitAll(func(f *flag.Flag) { registered[f.Name] = true })

	var missing, stale []string
	for name := range registered {
		if !documented[name] {
			missing = append(missing, name)
		}
	}
	for name := range documented {
		if !registered[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	for _, name := range missing {
		t.Errorf("flag -%s is registered but has no row in OPERATIONS.md's Flags table", name)
	}
	for _, name := range stale {
		t.Errorf("OPERATIONS.md's Flags table documents -%s, which the daemon does not register", name)
	}
}
