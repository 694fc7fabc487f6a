// Command fafcacd is the connection-establishment daemon: it owns a network
// model and its admission controller and serves admit/preview/release/report
// requests over TCP as newline-delimited JSON (see internal/signaling).
//
// Usage:
//
//	fafcacd -addr :7447 [-beta 0.5] [-rule proportional]
//	        [-metrics-addr :9447] [-audit-log cac-audit.jsonl]
//	        [-audit-queue 1024] [-audit-group-sync]
//	        [-recover cac-audit.jsonl] [-drain-grace 10s] [-idle-timeout 5m]
//
// The daemon runs one admission controller: decisions take its lock one at
// a time, readers see one published snapshot of the admitted state, requests
// are handled concurrently, and an asynchronous writer appends the audit log
// (see DESIGN.md §10).
//
// Try it with netcat:
//
//	echo '{"op":"admit","admit":{"id":"v1","srcRing":0,"srcHost":0,
//	      "dstRing":1,"dstHost":0,"deadlineMillis":60,
//	      "source":{"type":"dualPeriodic","c1Kbit":50,"p1Millis":10,
//	                "c2Kbit":10,"p2Millis":1}}}' | nc localhost 7447
//
// With -metrics-addr set, a second HTTP listener serves the operational
// surface (see OPERATIONS.md for the full catalog):
//
//	/metrics       Prometheus text exposition of all fafnet_* metrics
//	/debug/spans   most recent spans (JSON), newest last
//	/debug/vars    Go runtime expvars
//	/debug/pprof/  CPU, heap and contention profiles
//
// With -audit-log set, every admit/preview/release appends one JSON record
// to the named file (created if absent, opened in append mode so external
// rotation is safe).
//
// On SIGINT or SIGTERM the daemon drains instead of dying mid-request: it
// stops accepting, closes idle connections, lets in-flight requests finish
// (bounded by -drain-grace), then flushes the audit log to disk and exits.
// After a crash or kill, -recover replays an audit log to rebuild the
// admitted-connection state before serving; pointing -recover and -audit-log
// at the same file resumes a daemon exactly where it stopped.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fafnet/internal/core"
	"fafnet/internal/obs"
	"fafnet/internal/scenario"
	"fafnet/internal/signaling"
	"fafnet/internal/topo"
)

func main() {
	var cfg serveConfig
	registerFlags(flag.CommandLine, &cfg)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, cfg, nil); err != nil {
		fmt.Fprintln(os.Stderr, "fafcacd:", err)
		os.Exit(1)
	}
}

// registerFlags binds every daemon flag on fs to its field of cfg. It is the
// one list of flags: OPERATIONS.md's Flags table is checked against it.
func registerFlags(fs *flag.FlagSet, cfg *serveConfig) {
	fs.StringVar(&cfg.Addr, "addr", "127.0.0.1:7447", "signaling listen address")
	fs.Float64Var(&cfg.Beta, "beta", 0.5, "allocation knob of Eq. 35–36")
	fs.StringVar(&cfg.Rule, "rule", "proportional", "allocation rule: proportional, fixed-split, or sender-biased")
	fs.StringVar(&cfg.MetricsAddr, "metrics-addr", "", "HTTP listen address for /metrics, /debug/spans, /debug/vars and /debug/pprof (disabled when empty)")
	fs.StringVar(&cfg.AuditLog, "audit-log", "", "path of the admission audit log, one JSON record per operation (disabled when empty)")
	fs.StringVar(&cfg.Recover, "recover", "", "audit log to replay before serving, rebuilding admitted-connection state (see OPERATIONS.md)")
	fs.DurationVar(&cfg.DrainGrace, "drain-grace", 10*time.Second, "how long a SIGINT/SIGTERM drain waits for in-flight requests before force-closing")
	fs.DurationVar(&cfg.IdleTimeout, "idle-timeout", 0, "close client connections idle longer than this (0 disables)")
	fs.IntVar(&cfg.AuditQueue, "audit-queue", 1024, "async audit writer queue depth (full queue applies backpressure, never drops)")
	fs.BoolVar(&cfg.AuditGroupSync, "audit-group-sync", true, "fsync the audit log once per drained batch instead of only at shutdown")
}

// serveConfig bundles the daemon's knobs.
type serveConfig struct {
	Addr           string        // signaling listen address
	Beta           float64       // Eq. 35–36 allocation knob
	Rule           string        // allocation rule name
	MetricsAddr    string        // HTTP observability address; "" disables
	AuditLog       string        // audit-log path; "" disables
	Recover        string        // audit log to replay at startup; "" disables
	DrainGrace     time.Duration // in-flight budget of a signal-triggered drain
	IdleTimeout    time.Duration // per-connection idle deadline; 0 disables
	AuditQueue     int           // async audit queue depth; ≤0 selects the default
	AuditGroupSync bool          // group fsync per drained audit batch
}

// serveAddrs reports the addresses a running daemon actually bound (useful
// with ":0" listeners). Metrics is empty when the HTTP surface is disabled.
type serveAddrs struct {
	Signaling string
	Metrics   string
}

// spanRingSize bounds /debug/spans; old spans are overwritten, never block.
const spanRingSize = 512

// serve builds the controller (replaying an audit log first when configured)
// and serves until the listener fails or ctx is canceled; cancellation
// triggers a graceful drain bounded by cfg.DrainGrace, after which the audit
// log is flushed to stable storage. ready, when non-nil, receives the bound
// addresses once listening (used by tests).
func serve(ctx context.Context, cfg serveConfig, ready chan<- serveAddrs) error {
	s := scenario.Scenario{CAC: scenario.CAC{Beta: &cfg.Beta, Rule: cfg.Rule}}
	opts, err := s.CACOptions()
	if err != nil {
		return err
	}
	net0, err := topo.NewNetwork(topo.Default())
	if err != nil {
		return err
	}
	pipe, err := core.NewController(net0, opts)
	if err != nil {
		return err
	}
	if cfg.Recover != "" {
		// Replay runs before the audit sink is attached, so replayed admits
		// are not audited a second time.
		if err := recoverState(pipe, cfg.Recover); err != nil {
			return err
		}
	}
	srv, err := signaling.NewShardedServer(pipe)
	if err != nil {
		return err
	}
	srv.IdleTimeout = cfg.IdleTimeout

	if cfg.AuditLog != "" {
		audit, err := obs.OpenAuditLog(cfg.AuditLog)
		if err != nil {
			return fmt.Errorf("audit log: %w", err)
		}
		// Records enqueue in commit order and a background goroutine appends
		// them with one group fsync per batch. The deferred Close runs after
		// the drain below, when no handler can still enqueue; it drains the
		// queue, syncs, and closes the log. A failure there cannot be returned
		// (we are already unwinding), but it must not be silent either: the
		// operator needs to know the tail may be short before trusting a
		// replay.
		writer := obs.NewAsyncAuditWriter(audit, cfg.AuditQueue, cfg.AuditGroupSync)
		defer func() {
			if err := writer.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "fafcacd: audit log close:", err)
			}
		}()
		srv.SetAsyncAudit(writer)
	}

	var addrs serveAddrs
	if cfg.MetricsAddr != "" {
		ring := obs.NewSpanRing(spanRingSize)
		obs.SetSpanSink(ring)
		ml, err := net.Listen("tcp", cfg.MetricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		metrics := &http.Server{Handler: metricsMux(ring)}
		metricsDone := make(chan struct{})
		defer func() {
			// Close shuts the listener and every open connection, a
			// keep-alive scrape's included, so no connection goroutine
			// outlives serve; waiting on the join channel means the accept
			// loop is not left behind writing to a dead ring either.
			_ = metrics.Close()
			<-metricsDone
		}()
		addrs.Metrics = ml.Addr().String()
		go func() {
			defer close(metricsDone)
			if err := metrics.Serve(ml); !errors.Is(err, http.ErrServerClosed) {
				// The listener dying before shutdown must not kill the
				// daemon; admission service continues without metrics.
				fmt.Fprintln(os.Stderr, "fafcacd: metrics server:", err)
			}
		}()
	}

	l, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return err
	}
	addrs.Signaling = l.Addr().String()
	fmt.Printf("fafcacd: serving the CAC (beta=%.2g, rule=%s) on %s\n", cfg.Beta, cfg.Rule, l.Addr())
	if addrs.Metrics != "" {
		fmt.Printf("fafcacd: metrics on http://%s/metrics\n", addrs.Metrics)
	}
	if ready != nil {
		ready <- addrs
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	fmt.Printf("fafcacd: shutdown requested, draining for up to %v\n", cfg.DrainGrace)
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.DrainGrace)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "fafcacd: drain budget expired; stragglers force-closed:", err)
	}
	if err := <-serveErr; err != nil {
		return err
	}
	fmt.Println("fafcacd: drained")
	return nil
}

// recoverState replays an audit log into the still-empty serving pipeline
// (see signaling.Replay), printing what it rebuilt.
func recoverState(pipe *core.Sharded, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	records, err := obs.ReadAuditRecords(f)
	closeErr := f.Close()
	if err != nil {
		return fmt.Errorf("recover %s: %w", path, err)
	}
	if closeErr != nil {
		return fmt.Errorf("recover %s: %w", path, closeErr)
	}
	stats, err := signaling.Replay(pipe, records)
	if err != nil {
		return fmt.Errorf("recover %s: %w", path, err)
	}
	fmt.Printf("fafcacd: recovered from %s: %d admissions replayed, %d releases re-applied, %d records skipped, %d connections active\n",
		path, stats.Admits, stats.Releases, stats.Skipped, pipe.Active())
	return nil
}

// metricsMux assembles the observability HTTP surface. A dedicated mux (not
// http.DefaultServeMux) so nothing else a future import registers leaks onto
// the operational port.
func metricsMux(ring *obs.SpanRing) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Default.Handler())
	mux.Handle("/debug/spans", ring.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
