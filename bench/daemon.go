package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"fafnet/internal/core"
	"fafnet/internal/obs"
	"fafnet/internal/signaling"
	"fafnet/internal/topo"
)

// daemon is fafcacd's serving core built in-process: the default 3×4
// network, the sharded pipeline with its default lanes, a signaling server
// on a loopback TCP listener and, when audited, the async audit writer over
// a real file. Group fsync is always off: with it on, the sandbox disk and
// not the program sets the number (bench/README.md).
type daemon struct {
	pipe   *core.Sharded
	srv    *signaling.Server
	addr   string
	served chan error

	audit *auditFile // nil when the workload runs unaudited

	// sent and received count client-side wire bytes when a run is traced.
	sent, received atomic.Int64
}

// auditQueue is fafcacd's default -audit-queue.
const auditQueue = 1024

func startDaemon(outDir string, audited bool) (d *daemon, err error) {
	net0, err := topo.NewNetwork(topo.Default())
	if err != nil {
		return nil, err
	}
	pipe, err := core.NewSharded(net0, core.Options{}, 0)
	if err != nil {
		return nil, err
	}
	srv, err := signaling.NewShardedServer(pipe)
	if err != nil {
		return nil, err
	}
	d = &daemon{pipe: pipe, srv: srv, served: make(chan error, 1)}
	if audited {
		if d.audit, err = openAuditFile(outDir); err != nil {
			return nil, err
		}
		srv.SetAsyncAudit(d.audit.w)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, d.audit.close())
	}
	d.addr = l.Addr().String()
	go func() { d.served <- srv.Serve(l) }()
	return d, nil
}

// dial opens one client connection. Retries are off: on loopback a
// transport error is a failure to report, not to paper over. A traced run
// counts the bytes that cross the connection.
func (d *daemon) dial(counted bool) (*signaling.Client, error) {
	cfg := signaling.ClientConfig{
		Addr:        d.addr,
		DialTimeout: 5 * time.Second,
		ReadTimeout: 60 * time.Second,
	}
	if counted {
		cfg.Dialer = func(addr string, timeout time.Duration) (net.Conn, error) {
			c, err := net.DialTimeout("tcp", addr, timeout)
			if err != nil {
				return nil, err
			}
			return &countedConn{Conn: c, d: d}, nil
		}
	}
	return signaling.DialConfig(cfg)
}

// countedConn counts the bytes a client connection moves.
type countedConn struct {
	net.Conn
	d *daemon
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.d.received.Add(int64(n))
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.d.sent.Add(int64(n))
	return n, err
}

// stop drains the server, waits for Serve to return, then closes the audit
// writer and removes its file. Call it after every client is closed.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.served; serr != nil {
		err = errors.Join(err, fmt.Errorf("serve: %w", serr))
	}
	return errors.Join(err, d.audit.close())
}

// auditFile is an async audit writer over a real file in a temporary
// directory under the run's -out, removed when the fixture closes.
type auditFile struct {
	w   *obs.AsyncAuditWriter
	f   *cappedFile
	dir string
}

// cappedFile is the audit log's file: opened for appending, one write call
// per record like the daemon's own, but cut back to empty whenever it passes
// auditFileCap. The batch workload appends a quarter of a gigabyte in one
// window; left to grow, the file makes the host's page-cache writeback part
// of the measurement, which is the disk's number and not the program's.
type cappedFile struct {
	f *os.File
	n int64
}

const auditFileCap = 16 << 20

func (c *cappedFile) Write(p []byte) (int, error) {
	n, err := c.f.Write(p)
	c.n += int64(n)
	if err == nil && c.n > auditFileCap {
		c.n = 0
		err = c.f.Truncate(0)
	}
	return n, err
}

// Sync lets AuditLog.Sync reach the file.
func (c *cappedFile) Sync() error { return c.f.Sync() }

func openAuditFile(outDir string) (*auditFile, error) {
	dir, err := os.MkdirTemp(outDir, "audit-")
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, "audit.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	c := &cappedFile{f: f}
	return &auditFile{w: obs.NewAsyncAuditWriter(obs.NewAuditLog(c), auditQueue, false), f: c, dir: dir}, nil
}

// close drains and stops the writer, closes the file and removes the
// directory. A nil auditFile (an unaudited fixture) closes to nothing.
func (a *auditFile) close() error {
	if a == nil {
		return nil
	}
	return errors.Join(a.w.Close(), a.f.f.Close(), os.RemoveAll(a.dir))
}
