package signaling

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

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
		for _, c := range ctl.Connections() {
			if !ctl.Release(c.ID) {
				t.Fatalf("admitted connection %q cannot be released", c.ID)
			}
		}
		for r, got := range ringLedgers(ctl) {
			for i, name := range []string{"allocated", "available"} {
				if math.Float64bits(got[i]) != math.Float64bits(initial[r][i]) {
					t.Errorf("ring %d %s = %v after releasing everything, want exactly %v (replay error: %v)",
						r, name, got[i], initial[r][i], err)
				}
			}
		}
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
