package signaling

import (
	"errors"
	"fmt"
	"net"
	"time"

	"math/rand"

	"fafnet/internal/jsonwire"
	"fafnet/internal/scenario"
)

// ErrPossiblyCommitted marks an admit whose request may have reached the
// server but whose response was lost (the connection died between send and
// receive). The server may or may not have committed the admission; blindly
// retrying could double-allocate ring bandwidth, so the client refuses to
// retry and surfaces this error instead. Callers should query Report (or
// retry the admit and treat a duplicate-id error as success) to resolve the
// ambiguity.
var ErrPossiblyCommitted = errors.New("signaling: request may have been committed; response lost")

// ServerError is a protocol-level failure: the server answered ok=false
// (validation failure, unknown op, controller error). The transport is
// healthy and the connection stays usable, so ServerErrors are never
// retried.
type ServerError struct{ Msg string }

// Error implements the error interface.
func (e *ServerError) Error() string { return e.Msg }

// RetryPolicy shapes the client's reconnect-and-retry behavior: capped
// exponential backoff with jitter. The zero value disables retries
// entirely (one attempt, no redial).
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts including the first.
	// 0 and 1 both mean a single attempt.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; each further
	// attempt doubles it, capped at MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. 0 means BaseDelay is never doubled past
	// 30× (a safety cap against unbounded sleeps).
	MaxDelay time.Duration
	// Jitter is the fraction of each delay randomized, in [0, 1]: the
	// delay d becomes d·(1 − Jitter/2) + d·Jitter·U[0,1). 0 disables
	// jitter; 1 spreads attempts over [d/2, 3d/2). Jitter prevents a
	// restarted daemon from being hit by every waiting client at once.
	Jitter float64
	// Rand supplies the jitter variates in [0, 1). Nil uses the global
	// math/rand source; tests inject a seeded source for reproducibility.
	Rand func() float64
	// Sleep, when non-nil, replaces time.Sleep between attempts (a test
	// hook; also usable for context-aware waiting).
	Sleep func(time.Duration)
}

// DefaultRetryPolicy is the policy Dial installs: four attempts spread over
// roughly half a second, with full jitter.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   50 * time.Millisecond,
		MaxDelay:    2 * time.Second,
		Jitter:      1,
	}
}

// delay computes the jittered backoff before attempt n (n counts completed
// attempts, so n=1 delays the second attempt).
func (p RetryPolicy) delay(n int) time.Duration {
	d := p.BaseDelay
	if d <= 0 {
		return 0
	}
	maxDelay := p.MaxDelay
	if maxDelay <= 0 {
		maxDelay = 30 * p.BaseDelay
	}
	for i := 1; i < n && d < maxDelay; i++ {
		d *= 2
	}
	if d > maxDelay {
		d = maxDelay
	}
	if p.Jitter > 0 {
		r := p.Rand
		if r == nil {
			r = rand.Float64
		}
		d = time.Duration(float64(d) * (1 - p.Jitter/2 + p.Jitter*r()))
	}
	return d
}

// sleep waits the jittered backoff before attempt n.
func (p RetryPolicy) sleep(n int) {
	d := p.delay(n)
	if d <= 0 {
		return
	}
	if p.Sleep != nil {
		p.Sleep(d)
		return
	}
	time.Sleep(d)
}

// ClientConfig bundles the client's transport knobs.
type ClientConfig struct {
	// Addr is the server address. Required for DialConfig; when empty
	// (NewClient over an established conn) the client cannot redial, so a
	// broken connection fails every subsequent call.
	Addr string
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// ReadTimeout bounds one response read; WriteTimeout one request
	// write. Zero means no deadline. Admits run the full CAC analysis
	// server-side, so ReadTimeout must comfortably exceed the worst-case
	// decision latency (see fafnet_cac_decide_seconds).
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// Retry is the reconnect-and-retry policy. Which operations a retry
	// may repeat is decided per call: see the package documentation's
	// idempotency table.
	Retry RetryPolicy
	// Dialer overrides how connections are made (tests wrap the conn in
	// fault injectors here). Nil uses net.DialTimeout("tcp", ...).
	Dialer func(addr string, timeout time.Duration) (net.Conn, error)
}

// ClientStats counts the client's transport-level activity, for tests and
// operational logging.
type ClientStats struct {
	// Attempts counts request attempts, including first tries.
	Attempts int
	// Retries counts attempts beyond the first for some request.
	Retries int
	// Redials counts reconnections after a broken transport.
	Redials int
}

// Client talks to a signaling server, transparently redialing and retrying
// per its RetryPolicy. It is safe for sequential use only (one request in
// flight at a time).
type Client struct {
	cfg   ClientConfig
	stats ClientStats

	conn    net.Conn
	written *meteredWriter
	in      *wireReader
	out     jsonwire.Buffer // the request being sent, reused
}

// Dial connects to a signaling server with the default retry policy. For
// full control over deadlines and retries use DialConfig.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	return DialConfig(ClientConfig{Addr: addr, DialTimeout: timeout, Retry: DefaultRetryPolicy()})
}

// DialConfig connects to a signaling server with explicit transport
// configuration. The initial dial is attempted once; reconnects during
// retries follow cfg.Retry.
func DialConfig(cfg ClientConfig) (*Client, error) {
	if cfg.Addr == "" {
		return nil, errors.New("signaling: DialConfig requires an address")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	c := &Client{cfg: cfg}
	if err := c.redial(); err != nil {
		return nil, err
	}
	return c, nil
}

// NewClient wraps an established connection (useful for tests and custom
// transports). The client cannot redial — a broken transport is permanent —
// but unsent requests are still retried on the live connection per the
// default policy semantics (attempts with no way to reconnect fail fast).
func NewClient(conn net.Conn) *Client {
	c := &Client{}
	c.install(conn)
	return c
}

// install points the codec state at a fresh connection.
func (c *Client) install(conn net.Conn) {
	c.conn = conn
	c.written = &meteredWriter{w: conn}
	c.in = newWireReader(conn)
}

// redial establishes a fresh connection per the config.
func (c *Client) redial() error {
	dial := c.cfg.Dialer
	if dial == nil {
		dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	conn, err := dial(c.cfg.Addr, c.cfg.DialTimeout)
	if err != nil {
		return fmt.Errorf("signaling: dialing %s: %w", c.cfg.Addr, err)
	}
	c.install(conn)
	return nil
}

// Close releases the connection.
func (c *Client) Close() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// Stats returns transport-activity counters since the client was created.
func (c *Client) Stats() ClientStats { return c.stats }

// meteredWriter counts bytes the transport accepted, which is how the
// client distinguishes a confirmed-unsent request (zero bytes of it hit the
// wire — safe to retry anything) from a possibly-delivered one.
type meteredWriter struct {
	w net.Conn
	n int64
}

// Write forwards to the connection, counting accepted bytes.
func (m *meteredWriter) Write(p []byte) (int, error) {
	n, err := m.w.Write(p)
	m.n += int64(n)
	return n, err
}

// roundTrip sends one request and reads one response on the current
// connection, with no retries. sent reports whether any request bytes
// reached the transport (false means the server cannot have seen it).
func (c *Client) roundTrip(req Request) (resp Response, sent bool, err error) {
	if c.conn == nil {
		if c.cfg.Addr == "" {
			return Response{}, false, errors.New("signaling: connection closed")
		}
		c.stats.Redials++
		if err := c.redial(); err != nil {
			return Response{}, false, err
		}
	}
	before := c.written.n
	if c.cfg.WriteTimeout > 0 {
		if err := c.conn.SetWriteDeadline(time.Now().Add(c.cfg.WriteTimeout)); err != nil {
			// No bytes have been written, so this failure is retry-safe.
			return Response{}, false, fmt.Errorf("signaling: arming write deadline: %w", err)
		}
	}
	if err := writeLine(c.written, &c.out, &req, appendRequest); err != nil {
		return Response{}, c.written.n > before, fmt.Errorf("signaling: sending request: %w", err)
	}
	if c.cfg.ReadTimeout > 0 {
		if err := c.conn.SetReadDeadline(time.Now().Add(c.cfg.ReadTimeout)); err != nil {
			return Response{}, true, fmt.Errorf("signaling: arming read deadline: %w", err)
		}
	}
	if err := c.in.readResponse(&resp); err != nil {
		return Response{}, true, fmt.Errorf("signaling: reading response: %w", err)
	}
	if !resp.OK {
		return resp, true, &ServerError{Msg: resp.Error}
	}
	return resp, true, nil
}

// do runs one request with the retry policy. idempotent marks requests that
// may be repeated even when a previous attempt might have been executed
// (preview, report, buffers, release); admit passes false and is retried
// only while provably unsent.
func (c *Client) do(req Request, idempotent bool) (Response, error) {
	maxAttempts := c.cfg.Retry.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	var lastErr error
	for attempt := 1; ; attempt++ {
		c.stats.Attempts++
		resp, sent, err := c.roundTrip(req)
		if err == nil {
			return resp, nil
		}
		var se *ServerError
		if errors.As(err, &se) {
			// The transport is healthy; the server said no. Not retryable.
			return resp, err
		}
		// Transport failure: this connection is unusable.
		c.teardown()
		if sent && !idempotent {
			return Response{}, fmt.Errorf("%w (%s %v): %v", ErrPossiblyCommitted, req.Op, reqID(req), err)
		}
		lastErr = err
		if attempt >= maxAttempts || c.cfg.Addr == "" {
			return Response{}, lastErr
		}
		c.stats.Retries++
		c.cfg.Retry.sleep(attempt)
	}
}

// teardown discards a broken connection so the next attempt redials.
func (c *Client) teardown() {
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
	}
}

// reqID names the connection a request targets, for error messages.
func reqID(req Request) string {
	switch {
	case req.Admit != nil:
		return req.Admit.ID
	case req.Release != "":
		return req.Release
	default:
		return "-"
	}
}

// Admit requests admission; the returned decision reports acceptance or the
// rejection reason. Admit is NOT blindly retried: if the connection dies
// after any request bytes were sent but before the response arrived, Admit
// returns ErrPossiblyCommitted rather than risk double-allocating — see the
// package documentation.
func (c *Client) Admit(req scenario.Request) (Decision, error) {
	resp, err := c.do(Request{Op: OpAdmit, Admit: &req}, false)
	if err != nil {
		return Decision{}, err
	}
	if resp.Decision == nil {
		return Decision{}, errors.New("signaling: server returned no decision")
	}
	return *resp.Decision, nil
}

// Preview runs the CAC without committing. Previews change no server state
// and are retried freely.
func (c *Client) Preview(req scenario.Request) (Decision, error) {
	resp, err := c.do(Request{Op: OpPreview, Admit: &req}, true)
	if err != nil {
		return Decision{}, err
	}
	if resp.Decision == nil {
		return Decision{}, errors.New("signaling: server returned no decision")
	}
	return *resp.Decision, nil
}

// PreviewBatch runs the CAC over a whole batch of candidates in one round
// trip, committing nothing. Results are positional: out[i] answers reqs[i],
// and a per-member failure (e.g. a duplicate id) arrives in that member's
// Decision.Error rather than failing the batch. Pure read; retried freely.
func (c *Client) PreviewBatch(reqs []scenario.Request) ([]Decision, error) {
	resp, err := c.do(Request{Op: OpPreviewBatch, AdmitBatch: reqs}, true)
	if err != nil {
		return nil, err
	}
	if len(resp.Decisions) != len(reqs) {
		return nil, fmt.Errorf("signaling: server returned %d decisions for a batch of %d", len(resp.Decisions), len(reqs))
	}
	out := make([]Decision, len(reqs))
	for i, d := range resp.Decisions {
		if d == nil {
			return nil, fmt.Errorf("signaling: batch response is missing decision %d", i)
		}
		out[i] = *d
	}
	return out, nil
}

// Release tears down a connection, reporting whether it existed. Release is
// idempotent (releasing an already-released id reports false) and retried
// freely; after a retry, a false result may mean an earlier lost attempt
// already succeeded.
func (c *Client) Release(id string) (bool, error) {
	resp, err := c.do(Request{Op: OpRelease, Release: id}, true)
	if err != nil {
		return false, err
	}
	if resp.Released == nil {
		return false, errors.New("signaling: server returned no release status")
	}
	return *resp.Released, nil
}

// Report fetches every admitted connection's worst-case delay. Read-only;
// retried freely.
func (c *Client) Report() ([]ConnReport, error) {
	resp, err := c.do(Request{Op: OpReport}, true)
	if err != nil {
		return nil, err
	}
	return resp.Report, nil
}

// Buffers fetches the Theorem 1 buffer requirements. Read-only; retried
// freely.
func (c *Client) Buffers() ([]BufferReport, error) {
	resp, err := c.do(Request{Op: OpBuffers}, true)
	if err != nil {
		return nil, err
	}
	return resp.Buffers, nil
}
