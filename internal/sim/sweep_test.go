package sim

import (
	"reflect"
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

// TestBetaSweepMatchesSerialRuns pins the worker pool to the points it is
// handed: every point of a 2-load × 2-β sweep is, field for field, the
// Result of a serial Run of the same configuration under its pointSeed.
func TestBetaSweepMatchesSerialRuns(t *testing.T) {
	base := fastCfg(0, 11)
	base.Requests = 20
	base.Warmup = 2
	utils, betas := []float64{0.3, 0.9}, []float64{0, 1}
	series, err := BetaSweep(base, utils, betas)
	if err != nil {
		t.Fatal(err)
	}
	for si, u := range utils {
		for pi, beta := range betas {
			cfg := base
			cfg.Utilization = u
			cfg.CAC.Beta, cfg.CAC.BetaSet = beta, true
			cfg.Seed = pointSeed(base.Seed, si, pi)
			want, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := series[si].Points[pi]
			if got.X != beta || got.AP != want.AP.Value() || got.CI != want.AP.CI95() || !reflect.DeepEqual(got.Result, want) {
				t.Errorf("U=%v β=%v: sweep point %+v differs from the serial run %+v", u, beta, got, want)
			}
		}
	}
}
