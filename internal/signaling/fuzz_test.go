package signaling

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"fafnet/internal/core"
	"fafnet/internal/obs"
)

// ringLedgers samples every ring's (allocated, available) pair.
func ringLedgers(ctl *core.Controller) [][2]float64 {
	out := make([][2]float64, ctl.Network().NumRings())
	for r := range out {
		out[r][0], out[r][1] = ctl.RingLedger(r)
	}
	return out
}

// releaseAllExact releases every admitted connection and requires every ring
// ledger to be back at exactly its initial value; after names what ran before.
func releaseAllExact(t *testing.T, ctl *core.Controller, initial [][2]float64, after string) {
	t.Helper()
	for _, c := range ctl.Connections() {
		if !ctl.Release(c.ID) {
			t.Fatalf("admitted connection %q cannot be released", c.ID)
		}
	}
	if ctl.Active() != 0 {
		t.Fatalf("%d connections active after releasing every one", ctl.Active())
	}
	for r, got := range ringLedgers(ctl) {
		for i, name := range []string{"allocated", "available"} {
			if math.Float64bits(got[i]) != math.Float64bits(initial[r][i]) {
				t.Errorf("ring %d %s = %v after releasing everything, want exactly %v (%s)",
					r, name, got[i], initial[r][i], after)
			}
		}
	}
}

// FuzzReplay feeds arbitrary bytes through the path -recover trusts with the
// serving pipeline: obs.ReadAuditRecords, then Replay on a fresh controller.
// Whatever the log holds, nothing may panic; a replay that succeeds must
// leave exactly admits − releases connections; and, success or error,
// releasing what is still admitted must return every ring ledger to exactly
// its initial value — a replay that fails part-way corrupts nothing.
//
// The committed corpus (testdata/fuzz/FuzzReplay) is the log recordWorkload
// writes, and that log with a torn tail, a corrupt middle line, an unknown
// op, a β that does not match, and an admit without its request body.
func FuzzReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		records, err := obs.ReadAuditRecords(bytes.NewReader(data))
		if err != nil {
			return
		}
		ctl := freshController(t, core.Options{})
		initial := ringLedgers(ctl)
		stats, err := Replay(ctl, records)
		if err == nil && ctl.Active() != stats.Admits-stats.Releases {
			t.Fatalf("replay succeeded with %d connections active, want %d admits − %d releases",
				ctl.Active(), stats.Admits, stats.Releases)
		}
		releaseAllExact(t, ctl, initial, fmt.Sprintf("replay error: %v", err))
	})
}

// FuzzServerRequests feeds arbitrary bytes through the path a client socket
// reaches: the decoder loop of handle (stop at the first error), then
// Server.execute on a fresh controller, at most 16 requests a stream and no
// sockets. Whatever arrives, nothing may panic; a request that passes Validate
// must survive its own wire encoding unchanged; no single request may hold
// the controller for more than two seconds; and releasing what the stream left
// admitted must return every ring ledger to exactly its initial value.
//
// The committed corpus (testdata/fuzz/FuzzServerRequests) is an
// admit/preview/release/report stream, a valid dual-periodic source whose
// sub-period is 10⁻⁷ of its period (82 s of breakpoint enumeration before
// the sub-period loop honoured maxBreakpoints), a 512-member previewBatch, a
// request behind a malformed prefix, an unknown op, and a 1e308 field.
func FuzzServerRequests(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ctl := freshController(t, core.Options{})
		srv, err := NewShardedServer(ctl)
		if err != nil {
			t.Fatal(err)
		}
		initial := ringLedgers(ctl)
		dec := json.NewDecoder(bytes.NewReader(data))
		for n := 0; n < 16; n++ {
			var req Request
			if err := dec.Decode(&req); err != nil {
				break
			}
			if req.Validate() == nil {
				wire, err := json.Marshal(req)
				if err != nil {
					t.Fatalf("valid request %+v does not encode: %v", req, err)
				}
				var back Request
				if err := json.Unmarshal(wire, &back); err != nil {
					t.Fatalf("valid request does not decode from its own encoding %s: %v", wire, err)
				}
				if len(req.AdmitBatch) == 0 {
					req.AdmitBatch = nil // "admitBatch":[] is omitted like null
				}
				if !reflect.DeepEqual(req, back) {
					t.Fatalf("request changed on the wire: %+v became %+v", req, back)
				}
			}
			start := time.Now()
			srv.execute(req)
			if took := time.Since(start); took > 2*time.Second {
				t.Fatalf("%s request ran %v", req.Op, took)
			}
		}
		releaseAllExact(t, ctl, initial, "request stream")
	})
}

// TestFuzzReplayCorpusStaysLive keeps the committed corpus from rotting: the
// recorded log must still replay in full on today's analysis (were the
// allocations to drift past Replay's tolerance, the seed would silently turn
// into one more error case), and each damaged variant must still fail — or,
// for the torn tail, lose exactly its last record.
func TestFuzzReplayCorpusStaysLive(t *testing.T) {
	for _, c := range []struct {
		file           string
		admits, active int
		wantErr        string
	}{
		{file: "recorded-log", admits: 3, active: 2},
		{file: "torn-tail", admits: 3, active: 3},
		{file: "corrupt-middle", wantErr: "line 2"},
		{file: "unknown-op", wantErr: "unknown op"},
		{file: "beta-mismatch", wantErr: "β"},
		{file: "empty-request", wantErr: "no request body"},
	} {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzReplay", c.file))
		if err != nil {
			t.Fatal(err)
		}
		// A corpus file is a version line and one Go-quoted []byte literal.
		_, lit, _ := strings.Cut(string(raw), "\n")
		lit = strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(lit), "[]byte("), ")")
		log, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: not a fuzz corpus file: %v", c.file, err)
		}
		ctl := freshController(t, core.Options{})
		var stats ReplayStats
		records, err := obs.ReadAuditRecords(strings.NewReader(log))
		if err == nil {
			stats, err = Replay(ctl, records)
		}
		switch {
		case c.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%s: error %v, want one mentioning %q", c.file, err, c.wantErr)
			}
		case err != nil:
			t.Errorf("%s: %v", c.file, err)
		case stats.Admits != c.admits || ctl.Active() != c.active:
			t.Errorf("%s: %d admits replayed and %d active, want %d and %d", c.file, stats.Admits, ctl.Active(), c.admits, c.active)
		}
	}
}
