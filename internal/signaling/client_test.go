package signaling

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

func TestRetryPolicyDelayDoublesAndCaps(t *testing.T) {
	p := RetryPolicy{BaseDelay: 50 * time.Millisecond, MaxDelay: 300 * time.Millisecond}
	want := []time.Duration{
		50 * time.Millisecond,  // attempt 1 completed
		100 * time.Millisecond, // doubled
		200 * time.Millisecond,
		300 * time.Millisecond, // capped
		300 * time.Millisecond, // stays capped
	}
	for i, w := range want {
		if got := p.delay(i + 1); got != w {
			t.Errorf("delay(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestRetryPolicyDefaultCapIsThirtyTimesBase(t *testing.T) {
	p := RetryPolicy{BaseDelay: 10 * time.Millisecond} // MaxDelay 0
	if got, want := p.delay(20), 300*time.Millisecond; got != want {
		t.Errorf("uncapped delay(20) = %v, want the 30×Base safety cap %v", got, want)
	}
}

func TestRetryPolicyJitterBounds(t *testing.T) {
	// With full jitter the delay d spreads over [d/2, 3d/2). Drive the
	// variate to both ends and the middle.
	base := 100 * time.Millisecond
	tests := []struct {
		variate float64
		want    time.Duration
	}{
		{0, 50 * time.Millisecond},
		{0.5, 100 * time.Millisecond},
		{0.999999, 150 * time.Millisecond},
	}
	for _, tt := range tests {
		p := RetryPolicy{BaseDelay: base, Jitter: 1, Rand: func() float64 { return tt.variate }}
		got := p.delay(1)
		if diff := got - tt.want; diff < -time.Millisecond || diff > time.Millisecond {
			t.Errorf("jittered delay with variate %v = %v, want ≈%v", tt.variate, got, tt.want)
		}
	}
}

func TestRetryPolicyZeroValueDisablesBackoff(t *testing.T) {
	var p RetryPolicy
	if got := p.delay(3); got != 0 {
		t.Errorf("zero policy delay = %v, want 0", got)
	}
}

// slammingListener accepts connections and closes them immediately after
// optionally reading a few bytes — a server that dies mid-conversation.
func slammingListener(t *testing.T, readFirst bool) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			if readFirst {
				_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
				_, _ = conn.Read(make([]byte, 64))
			}
			_ = conn.Close()
		}
	}()
	return l.Addr().String()
}

// flakyThenRealDialer fails the first n dials by connecting to a slamming
// listener, then dials the real server.
func flakyThenRealDialer(t *testing.T, n int, badAddr, goodAddr string) func(string, time.Duration) (net.Conn, error) {
	t.Helper()
	calls := 0
	return func(_ string, timeout time.Duration) (net.Conn, error) {
		calls++
		if calls <= n {
			return net.DialTimeout("tcp", badAddr, timeout)
		}
		return net.DialTimeout("tcp", goodAddr, timeout)
	}
}

func TestIdempotentOpsRetryAcrossRedial(t *testing.T) {
	// The address the helper's client dialed, not srv.Addr(): Dial succeeds
	// off the listen backlog, possibly before Serve has stored its listener,
	// and Addr is nil until then.
	first, _ := startServer(t)
	goodAddr := first.cfg.Addr
	badAddr := slammingListener(t, true)

	var slept []time.Duration
	client, err := DialConfig(ClientConfig{
		Addr: goodAddr, // any non-empty addr enables redial; Dialer decides the target
		Retry: RetryPolicy{
			MaxAttempts: 3,
			BaseDelay:   time.Millisecond,
			Sleep:       func(d time.Duration) { slept = append(slept, d) },
		},
		Dialer: flakyThenRealDialer(t, 1, badAddr, goodAddr),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// First attempt lands on the slamming listener and loses the response;
	// report is idempotent, so the retry redials and succeeds.
	report, err := client.Report()
	if err != nil {
		t.Fatalf("idempotent report did not survive a dead connection: %v", err)
	}
	if len(report) != 0 {
		t.Errorf("report = %+v, want empty", report)
	}
	stats := client.Stats()
	if stats.Retries < 1 || stats.Redials < 1 {
		t.Errorf("stats = %+v, want at least one retry and one redial", stats)
	}
	if len(slept) == 0 {
		t.Error("retry did not back off")
	}
}

func TestAdmitNotRetriedOncePossiblySent(t *testing.T) {
	badAddr := slammingListener(t, true)
	client, err := DialConfig(ClientConfig{
		Addr:  badAddr,
		Retry: RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	_, err = client.Admit(videoRequest("v1", 0, 0, 1, 0))
	if !errors.Is(err, ErrPossiblyCommitted) {
		t.Fatalf("admit over a dying connection returned %v, want ErrPossiblyCommitted", err)
	}
	if got := client.Stats().Attempts; got != 1 {
		t.Errorf("admit was attempted %d times after its bytes reached the wire, want exactly 1", got)
	}
}

// deadConn is an established connection whose writes fail before accepting
// any bytes: the confirmed-unsent case.
type deadConn struct{ net.Conn }

func (d deadConn) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

func TestAdmitRetriedWhileConfirmedUnsent(t *testing.T) {
	first, _ := startServer(t) // not srv.Addr(): see TestIdempotentOpsRetryAcrossRedial
	goodAddr := first.cfg.Addr

	dials := 0
	client, err := DialConfig(ClientConfig{
		Addr:  goodAddr,
		Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond},
		Dialer: func(_ string, timeout time.Duration) (net.Conn, error) {
			dials++
			conn, err := net.DialTimeout("tcp", goodAddr, timeout)
			if err != nil {
				return nil, err
			}
			if dials == 1 {
				return deadConn{conn}, nil
			}
			return conn, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// The first attempt's write fails with zero bytes out, so even the
	// non-idempotent admit may retry: the server provably never saw it.
	dec, err := client.Admit(videoRequest("v1", 0, 0, 1, 0))
	if err != nil {
		t.Fatalf("confirmed-unsent admit was not retried: %v", err)
	}
	if !dec.Admitted {
		t.Errorf("admit rejected: %s", dec.Reason)
	}
	if stats := client.Stats(); stats.Attempts != 2 || stats.Redials != 1 {
		t.Errorf("stats = %+v, want exactly 2 attempts and 1 redial", stats)
	}
}

func TestServerErrorsAreNeverRetried(t *testing.T) {
	client, _ := startServer(t)
	// Force a retry-eager policy onto the shared client.
	client.cfg.Retry = RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond}
	attemptsBefore := client.Stats().Attempts

	bad := videoRequest("x", 0, 0, 1, 0)
	bad.Source.Type = "warp"
	_, err := client.Admit(bad)
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("invalid request returned %T (%v), want *ServerError", err, err)
	}
	if got := client.Stats().Attempts - attemptsBefore; got != 1 {
		t.Errorf("protocol error was attempted %d times, want exactly 1", got)
	}
	// The connection survived the protocol error.
	if _, err := client.Report(); err != nil {
		t.Errorf("connection unusable after a server error: %v", err)
	}
}

func TestExhaustedRetriesReturnLastError(t *testing.T) {
	var slept []time.Duration
	client := &Client{cfg: ClientConfig{
		Addr:  "127.0.0.1:1", // reserved port: dials fail fast
		Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Sleep: func(d time.Duration) { slept = append(slept, d) }},
		Dialer: func(string, time.Duration) (net.Conn, error) {
			return nil, errors.New("synthetic dial failure")
		},
	}}
	_, err := client.Report()
	if err == nil || errors.Is(err, ErrPossiblyCommitted) {
		t.Fatalf("err = %v, want the transport error", err)
	}
	if got := client.Stats().Attempts; got != 3 {
		t.Errorf("attempts = %d, want MaxAttempts = 3", got)
	}
	if len(slept) != 2 {
		t.Errorf("backoff slept %d times, want 2 (between 3 attempts)", len(slept))
	}
}

func TestNewClientCannotRedial(t *testing.T) {
	left, right := net.Pipe()
	right.Close()
	left.Close()
	client := NewClient(left)
	client.cfg.Retry = RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond}
	if _, err := client.Report(); err == nil {
		t.Fatal("report over a closed, redial-less connection should fail")
	}
	if got := client.Stats().Redials; got != 0 {
		t.Errorf("redials = %d, want 0 without an address", got)
	}
}
