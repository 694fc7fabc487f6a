package sim

import "testing"

// calibrateConfig returns the gate configuration: the full randomized sweep
// in normal mode, a slimmer one under -short so tier-1 stays fast. Both
// enforce the same invariants — zero analytic-bound violations and
// bit-identical trace replay.
func calibrateConfig(t *testing.T) CalibrateConfig {
	t.Helper()
	cfg := CalibrateConfig{
		Seed:           20260808,
		Scenarios:      100,
		Requests:       30,
		Warmup:         10,
		PacketDuration: 0.15,
	}
	if testing.Short() {
		cfg.Scenarios = 6
	}
	return cfg
}

// TestCalibrationGate is the standing correctness gate of ROADMAP item 3: a
// randomized multi-class sweep in which every packet-level measured delay
// must stay below its analytic Eq. 7 bound, and replaying each scenario's
// recorded trace must reproduce the decision stream bit-for-bit.
func TestCalibrationGate(t *testing.T) {
	cfg := calibrateConfig(t)
	res, err := Calibrate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) != cfg.Scenarios {
		t.Fatalf("ran %d scenarios, want %d", len(res.Scenarios), cfg.Scenarios)
	}
	for _, out := range res.Scenarios {
		if out.Violations > 0 {
			t.Errorf("scenario %d (seed %d): %d measured delays above the analytic bound",
				out.Index, out.Seed, out.Violations)
		}
		if !out.ReplayMatch {
			t.Errorf("scenario %d (seed %d): trace replay diverged from the recording",
				out.Index, out.Seed)
		}
		if out.WorstTightness > 1 {
			t.Errorf("scenario %d: worst tightness %v above 1 without a violation — accounting bug",
				out.Index, out.WorstTightness)
		}
	}
	if !res.Passed() {
		t.Fatalf("gate failed: %d violations, %d replay mismatches", res.Violations, res.ReplayMismatches)
	}

	// The sweep must actually have measured something, or the gate is
	// vacuously green.
	if res.Overall.Connections == 0 {
		t.Fatal("sweep measured no connections")
	}
	if res.Overall.WorstTightness <= 0 || res.Overall.WorstTightness > 1 {
		t.Errorf("overall worst tightness = %v, want in (0, 1]", res.Overall.WorstTightness)
	}
	if res.Overall.AP.Trials() == 0 {
		t.Error("no admission trials pooled")
	}
	// Bounds and measurements must correlate positively in aggregate: a
	// bound that does not track the measurement at all would still "pass"
	// on conservatism alone. Only meaningful over the full sweep — a
	// -short run's handful of scenarios is sampling noise.
	if !testing.Short() && res.Overall.Pearson <= 0 {
		t.Errorf("overall Pearson = %v, want positive", res.Overall.Pearson)
	}
	for _, c := range res.PerClass {
		if c.WorstTightness > 1 {
			t.Errorf("class %s worst tightness %v above 1", c.Class, c.WorstTightness)
		}
	}
}

// TestCalibrateDeterministic pins the sweep to its seed: two identical
// configurations must produce identical outcomes scenario by scenario.
func TestCalibrateDeterministic(t *testing.T) {
	cfg := calibrateConfig(t)
	cfg.Scenarios = 3
	a, err := Calibrate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Calibrate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Scenarios {
		if a.Scenarios[i] != b.Scenarios[i] {
			t.Errorf("scenario %d differs across identical sweeps:\n%+v\n%+v",
				i, a.Scenarios[i], b.Scenarios[i])
		}
	}
	if a.Overall != b.Overall {
		t.Errorf("overall summary differs:\n%+v\n%+v", a.Overall, b.Overall)
	}
}

// TestCalibrateProgress checks the per-scenario callback fires in order.
func TestCalibrateProgress(t *testing.T) {
	cfg := calibrateConfig(t)
	cfg.Scenarios = 2
	var seen []int
	cfg.Progress = func(out ScenarioOutcome) { seen = append(seen, out.Index) }
	if _, err := Calibrate(cfg); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != 0 || seen[1] != 1 {
		t.Errorf("progress callbacks = %v, want [0 1]", seen)
	}
}
