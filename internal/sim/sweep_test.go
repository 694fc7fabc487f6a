package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestSweepStopsWorkers runs a sweep whose points succeed and one whose
// points fail, and requires every worker of the pool to be gone once the
// sweep returns: the pool is joined, not abandoned, on either outcome.
func TestSweepStopsWorkers(t *testing.T) {
	base := fastCfg(0, 3)
	base.Requests = 20
	base.Warmup = 2
	for _, tc := range []struct {
		name    string
		utils   []float64
		wantErr string
	}{
		{"every point succeeds", []float64{0.3}, ""},
		{"a point errors", []float64{0.3, 0}, "utilization 0 must be positive"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			done := make(chan error, 1)
			go func() {
				_, err := BetaSweep(base, tc.utils, []float64{0, 1})
				done <- err
			}()
			var err error
			select {
			case err = <-done:
			case <-time.After(20 * time.Second):
				t.Fatal("BetaSweep did not return: its workers were never released")
			}
			if tc.wantErr == "" && err != nil {
				t.Fatal(err)
			}
			if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
				t.Fatalf("BetaSweep error %v, want one containing %q", err, tc.wantErr)
			}
			// Up to five seconds, counted in 1 ms sleeps: the simulation
			// packages read no wall clock, their tests included.
			for wait := 0; runtime.NumGoroutine() > before; wait++ {
				if wait == 5000 {
					buf := make([]byte, 1<<20)
					t.Fatalf("goroutine leak: %d before the sweep, %d after\n%s",
						before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
