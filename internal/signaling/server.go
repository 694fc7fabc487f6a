package signaling

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fafnet/internal/core"
	"fafnet/internal/jsonwire"
	"fafnet/internal/obs"
)

// acceptRetryMax bounds the backoff Serve applies after a temporary accept
// failure (a transient fault or file-descriptor exhaustion), mirroring
// net/http.Server's accept loop.
const acceptRetryMax = time.Second

// Server exposes the admission controller over newline-delimited JSON. Each
// accepted TCP connection may issue any number of sequential requests;
// handlers call straight into the controller, which is safe for concurrent
// use and decides one request at a time.
//
// The server keeps a registry of open connections, which is what makes
// shutdown sound: Close force-closes everything immediately, Shutdown
// drains gracefully — stops accepting, closes idle connections, waits for
// in-flight requests to finish, and force-closes stragglers only when its
// context expires.
type Server struct {
	// pipe is the admission controller; set at construction and immutable
	// afterwards.
	pipe *core.Sharded

	// opts is the controller's effective CAC configuration, captured at
	// construction so audit records can report β.
	opts core.Options

	// IdleTimeout, when positive, bounds how long a connection may sit
	// between requests (and how long one request may take to arrive in
	// full) before the server closes it. WriteTimeout, when positive,
	// bounds one response write. Both must be set before Serve; zero means
	// no deadline, the pre-hardening behavior.
	IdleTimeout  time.Duration
	WriteTimeout time.Duration

	// asyncAudit, when set, receives one record per admit/preview/release.
	// An atomic pointer so SetAsyncAudit can run concurrently with handlers.
	// State-changing records are enqueued inside the controller's commit
	// critical section, so file order equals commit order, preserving
	// replay-to-identical-state.
	asyncAudit atomic.Pointer[obs.AsyncAuditWriter]

	wg sync.WaitGroup
	// mu guards the listener and nothing else.
	mu sync.Mutex
	// listener is the accept-loop listener Serve registers. guarded by mu.
	listener net.Listener
	closed   chan struct{}

	// connMu guards the connection registry and the draining flag.
	// Lock-order note: connMu is a leaf — nothing is acquired and no
	// blocking operation runs while it is held.
	connMu sync.Mutex
	// conns is the open-connection registry. guarded by connMu.
	conns map[net.Conn]*connState
	// draining is set once shutdown begins. guarded by connMu.
	draining bool
	// drainSignaled records that drained was handed to a closer. guarded by connMu.
	drainSignaled bool
	drained       chan struct{} // closed once draining && registry empty

	// testHookBeforeExecute, when non-nil, runs after a request is decoded
	// (the connection is marked active) and before it executes. Tests use it
	// to hold a request deterministically in flight; nil in production.
	testHookBeforeExecute func()
}

// connState tracks one connection's position in the request cycle so a
// draining server can tell idle connections (safe to close now) from ones
// with a request in flight (worth waiting for).
type connState struct {
	active atomic.Bool // a request has been decoded and not yet answered
}

// NewShardedServer wraps an admission controller.
func NewShardedServer(p *core.Sharded) (*Server, error) {
	if p == nil {
		return nil, errors.New("signaling: server requires a controller")
	}
	return &Server{
		pipe:    p,
		opts:    p.Options(),
		closed:  make(chan struct{}),
		conns:   make(map[net.Conn]*connState),
		drained: make(chan struct{}),
	}, nil
}

// Serve accepts connections on l until Close or Shutdown is called. It
// blocks, returning nil after a clean shutdown once every handler has
// exited. Temporary accept errors (in the net.Error sense) are retried with
// exponential backoff instead of killing the server.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.listener != nil {
		s.mu.Unlock()
		return errors.New("signaling: server already serving")
	}
	s.listener = l
	s.mu.Unlock()
	if s.isDraining() {
		// Shutdown ran before this listener was registered and so could not
		// close it; finish the job here instead of accepting forever.
		_ = l.Close()
		s.wg.Wait()
		return nil
	}
	var retryDelay time.Duration
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-s.closed:
				s.wg.Wait()
				return nil
			default:
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Temporary() {
				if retryDelay == 0 {
					retryDelay = 5 * time.Millisecond
				} else if retryDelay *= 2; retryDelay > acceptRetryMax {
					retryDelay = acceptRetryMax
				}
				mAcceptRetries.Inc()
				time.Sleep(retryDelay)
				continue
			}
			return fmt.Errorf("signaling: accept: %w", err)
		}
		retryDelay = 0
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Addr returns the address the server is listening on, or nil when Serve has
// not yet stored its listener. Callers that need the address to reach a server
// started concurrently should prefer the address they dialed.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return nil
	}
	return s.listener.Addr()
}

// Close stops the server immediately: it stops accepting, force-closes
// every open connection (in-flight requests lose their response), and
// returns once every handler has exited. For a graceful stop use Shutdown.
// Close is idempotent and safe to call concurrently.
func (s *Server) Close() error {
	s.beginShutdown()
	s.closeConns(func(*connState) bool { return true })
	<-s.drained
	return nil
}

// Shutdown drains the server: it stops accepting, closes idle connections,
// lets in-flight requests finish (their handlers close the connection after
// answering), and waits for the registry to empty. If ctx expires first the
// remaining connections are force-closed — committed work is never rolled
// back, but those clients lose their responses — and ctx's error is
// returned. A nil error means every client got its answer.
//
// A connection that has received a request but not yet decoded it when
// Shutdown starts counts as idle and is closed without an answer; the
// retrying client treats that as a confirmed-unsent failure only if no
// bytes of its request reached the wire (see ClientConfig).
func (s *Server) Shutdown(ctx context.Context) error {
	s.beginShutdown()
	s.closeConns(func(st *connState) bool { return !st.active.Load() })
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
	}
	n := s.closeConns(func(*connState) bool { return true })
	mForceClosed.Add(uint64(n))
	<-s.drained
	return ctx.Err()
}

// beginShutdown marks the server draining, stops the accept loop, and
// arranges the drained signal if no connections are open. Idempotent.
func (s *Server) beginShutdown() {
	s.mu.Lock()
	select {
	case <-s.closed:
	default:
		close(s.closed)
	}
	l := s.listener
	s.mu.Unlock()
	if l != nil {
		// Idempotent on net listeners; unblocks Accept.
		_ = l.Close()
	}
	s.connMu.Lock()
	s.draining = true
	signal := s.maybeDrainedLocked()
	s.connMu.Unlock()
	if signal {
		close(s.drained)
	}
}

// maybeDrainedLocked reports (once) that the drain completed. Caller holds
// connMu and must close s.drained when true is returned — outside the lock.
func (s *Server) maybeDrainedLocked() bool {
	if s.draining && !s.drainSignaled && len(s.conns) == 0 {
		s.drainSignaled = true
		return true
	}
	return false
}

// closeConns closes every registered connection selected by pred and
// returns how many it closed.
func (s *Server) closeConns(pred func(*connState) bool) int {
	s.connMu.Lock()
	victims := make([]net.Conn, 0, len(s.conns))
	for conn, st := range s.conns {
		if pred(st) {
			victims = append(victims, conn)
		}
	}
	s.connMu.Unlock()
	for _, conn := range victims {
		// Unblocks the handler's pending Decode/Encode; the handler then
		// deregisters itself, which is what moves the drain forward.
		_ = conn.Close()
	}
	return len(victims)
}

// trackConn registers a new connection, refusing it when the server is
// draining (the accept loop may race beginShutdown by one connection).
func (s *Server) trackConn(conn net.Conn, st *connState) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.draining {
		return false
	}
	s.conns[conn] = st
	gOpenConns.Set(float64(len(s.conns)))
	return true
}

// forgetConn closes and deregisters a connection, signaling the drain when
// it was the last one.
func (s *Server) forgetConn(conn net.Conn) {
	_ = conn.Close()
	s.connMu.Lock()
	delete(s.conns, conn)
	gOpenConns.Set(float64(len(s.conns)))
	signal := s.maybeDrainedLocked()
	s.connMu.Unlock()
	if signal {
		close(s.drained)
	}
}

// isDraining reports whether shutdown has begun.
func (s *Server) isDraining() bool {
	select {
	case <-s.closed:
		return true
	default:
		return false
	}
}

// handle serves one client connection.
func (s *Server) handle(conn net.Conn) {
	st := &connState{}
	if !s.trackConn(conn, st) {
		_ = conn.Close()
		return
	}
	defer s.forgetConn(conn)
	in := newWireReader(conn)
	var out jsonwire.Buffer
	for {
		if s.IdleTimeout > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(s.IdleTimeout)); err != nil {
				// A connection that cannot arm its idle deadline would sit
				// unbounded — exactly what the timeout hardening forbids.
				return
			}
		}
		var req Request
		if err := in.readRequest(&req); err != nil {
			if errors.Is(err, io.EOF) {
				return // clean client close
			}
			if isTimeout(err) {
				mIdleClosed.Inc()
				return // idle past the deadline; nothing to answer
			}
			if s.isDraining() {
				return // our own shutdown close, not a client error
			}
			// Malformed JSON: answer with a structured error so scripted
			// clients see what went wrong, then drop the connection — the
			// stream position after a parse failure is undefined, so
			// resynchronization is impossible.
			mRequests[opInvalid].Inc()
			mErrors[opInvalid].Inc()
			_ = writeLine(conn, &out, &Response{Error: fmt.Sprintf("signaling: malformed request: %v", err)}, appendResponse)
			return
		}
		st.active.Store(true)
		if s.testHookBeforeExecute != nil {
			s.testHookBeforeExecute()
		}
		resp := s.execute(req)
		if s.WriteTimeout > 0 {
			if err := conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout)); err != nil {
				// The request executed; without a bounded write the handler
				// could stall a drain forever, so drop the connection (the
				// client's retry policy treats this as sent-but-unanswered).
				st.active.Store(false)
				return
			}
		}
		err := writeLine(conn, &out, &resp, appendResponse)
		st.active.Store(false)
		if err != nil {
			return
		}
		if s.isDraining() {
			// The drain let this request finish; don't take another.
			return
		}
	}
}

// isTimeout reports whether err is an I/O deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// execute wraps executeOp with the per-op observability (request/error
// counters, latency histogram, op echo).
func (s *Server) execute(req Request) Response {
	label := opLabel(req.Op)
	mRequests[label].Inc()
	_, sp := obs.Start(context.Background(), "signaling."+label)
	resp := s.executeOp(req)
	mOpSeconds[label].Observe(sp.Seconds())
	sp.End()
	resp.Op = req.Op
	if !resp.OK {
		mErrors[label].Inc()
	}
	return resp
}

// executeOp runs one request against the controller, with no server-level
// lock. Audit records for state-changing operations are built and handed to
// the sink by callbacks the controller invokes inside its commit critical
// section, which is what keeps audit order equal to commit order.
func (s *Server) executeOp(req Request) Response {
	spec, specs, err := req.specs(true)
	if err != nil {
		return Response{Error: err.Error()}
	}
	switch req.Op {
	case OpAdmit, OpPreview:
		var record func(core.Decision, error)
		if s.auditEnabled() {
			record = func(dec core.Decision, opErr error) {
				s.appendAudit(s.decisionRecord(req, spec, dec, opErr))
			}
		}
		var dec core.Decision
		if req.Op == OpAdmit {
			dec, err = s.pipe.RequestAdmissionAudited(spec, record)
		} else {
			dec, err = s.pipe.PreviewAdmissionAudited(spec, record)
		}
		if err != nil {
			return Response{Error: err.Error()}
		}
		d := wireDecision(spec, dec)
		return Response{OK: true, Decision: &d}
	case OpPreviewBatch:
		var record func(int, core.Decision, error)
		if s.auditEnabled() {
			record = func(i int, dec core.Decision, opErr error) {
				elem := Request{Op: OpPreviewBatch, Admit: &req.AdmitBatch[i]}
				s.appendAudit(s.decisionRecord(elem, specs[i], dec, opErr))
			}
		}
		results := s.pipe.PreviewAdmissionBatch(specs, record)
		vals := make([]Decision, len(results))
		decs := make([]*Decision, len(results))
		for i, r := range results {
			vals[i] = wireBatchDecision(specs[i], r.Decision, r.Err)
			decs[i] = &vals[i]
		}
		return Response{OK: true, Decisions: decs}
	case OpRelease:
		var record func(bool)
		if s.auditEnabled() {
			record = func(found bool) {
				s.appendAudit(s.releaseRecord(req.Release, found))
			}
		}
		ok := s.pipe.ReleaseAudited(req.Release, record)
		return Response{OK: true, Released: &ok}
	case OpReport:
		conns, delays, err := s.pipe.ConnectionsAndDelays()
		if err != nil {
			return Response{Error: err.Error()}
		}
		var report []ConnReport
		for _, c := range conns {
			report = append(report, ConnReport{
				ID:             c.ID,
				Src:            c.Src.String(),
				Dst:            c.Dst.String(),
				DelayMillis:    delays[c.ID] * 1e3,
				DeadlineMillis: c.Deadline * 1e3,
			})
		}
		return Response{OK: true, Report: report}
	case OpBuffers:
		buffers, err := s.pipe.BufferReport()
		if err != nil {
			return Response{Error: err.Error()}
		}
		var out []BufferReport
		for _, b := range buffers {
			out = append(out, BufferReport{
				ID:      b.ConnID,
				SrcKbit: b.SrcBufferBits / 1e3,
				DstKbit: b.DstBufferBits / 1e3,
			})
		}
		return Response{OK: true, Buffers: out}
	default:
		return Response{Error: fmt.Sprintf("signaling: unknown op %q", req.Op)}
	}
}
