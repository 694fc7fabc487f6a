package main

import (
	"regexp"
	"testing"
	"time"

	"fafnet/internal/units"
)

// smokeOps is each workload's window in the smoke runs: about a fiftieth
// of what a 12-second run does, on smokeSizes fixtures.
var smokeOps = map[string]int{
	"churn":                 24,
	"arrivals_open":         8,
	"preview":               2000,
	"preview_batch_audited": 4 * batchMembers,
	"figure7":               figure7Points * (smokeSizes.pointRequests + smokeSizes.pointWarmup),
	"calibrate":             2,
}

func smokeEnv(t *testing.T, name string, seed int64) *env {
	t.Helper()
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	def := workloadNamed(name)
	if def == nil {
		t.Fatalf("workload %s is not registered", name)
	}
	return &env{
		opts: options{workload: name, seed: seed, ops: smokeOps[name], out: t.TempDir()},
		def:  def, spec: spec, sz: smokeSizes,
	}
}

// smokeWorkloads is every workload, or under -short (the race gate) one
// wire workload and one in-process one.
func smokeWorkloads() []string {
	if testing.Short() {
		return []string{"churn", "figure7"}
	}
	names := make([]string, len(workloads))
	for i, d := range workloads {
		names[i] = d.name
	}
	return names
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpecSchema holds BENCHMARK.json to the contract its driver checks
// and to the workloads this package registers, in both directions.
func TestSpecSchema(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the package has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if workloads[i].name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the package", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	seen := make(map[string]bool)
	var setup bool
	for _, d := range append(append([]metricDecl(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %s is declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range spec.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v is outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s end-to-end metric in seconds, lower is better")
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for name, on := range onlyOn() {
		if !seen[name] {
			t.Errorf("onlyOn names %s, which BENCHMARK.json does not declare", name)
		}
		for _, w := range on {
			if workloadNamed(w) == nil {
				t.Errorf("onlyOn lists %s on %q, which is no workload", name, w)
			}
		}
	}
}

// TestSmokeUntraced runs each workload's end-to-end path at smoke size:
// every declared end-to-end metric is produced and is not zero, nothing
// fails, the same seed repeats the same decisions and counts, and another
// seed does not.
func TestSmokeUntraced(t *testing.T) {
	for _, name := range smokeWorkloads() {
		t.Run(name, func(t *testing.T) {
			run := func(seed int64) *report {
				e := smokeEnv(t, name, seed)
				rep, err := e.runUntraced()
				if err != nil {
					t.Fatal(err)
				}
				if rep.failed != 0 || len(rep.problems) != 0 {
					t.Fatalf("seed %d: %d failed ops, problems %v", seed, rep.failed, rep.problems)
				}
				if len(rep.metrics) != len(e.spec.EndToEnd) {
					t.Errorf("%d metrics produced, %d declared", len(rep.metrics), len(e.spec.EndToEnd))
				}
				for _, d := range e.spec.EndToEnd {
					if v, ok := rep.metrics[d.Name]; !ok || !(v > 0) {
						t.Errorf("end-to-end metric %s = %v (present %v)", d.Name, v, ok)
					}
				}
				return rep
			}
			a, b, c := run(1), run(1), run(2)
			if a.fingerprint != b.fingerprint || a.ops != b.ops || a.attempted != b.attempted {
				t.Errorf("seed 1 did not repeat: fingerprints %016x %016x, ops %d %d, attempted %d %d",
					a.fingerprint, b.fingerprint, a.ops, b.ops, a.attempted, b.attempted)
			}
			if a.fingerprint == c.fingerprint {
				t.Errorf("seeds 1 and 2 share fingerprint %016x", a.fingerprint)
			}
		})
	}
}

// TestSmokeTraced runs each workload's traced path: the names produced are
// exactly the declared per-layer names. runTraced fills in no default, so a
// metric that applies to the workload and that no pass wrote is missing
// here. (That the traced passes reproduce the untraced slice's decisions is
// one of the run's own checks, so it shows in rep.problems.)
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced passes run every layer's direct calls; skipped under -short")
	}
	for _, name := range smokeWorkloads() {
		t.Run(name, func(t *testing.T) {
			e := smokeEnv(t, name, 1)
			rep, err := e.runTraced()
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || len(rep.problems) != 0 {
				t.Fatalf("%d failed ops, problems %v", rep.failed, rep.problems)
			}
			declared := make(map[string]bool)
			for _, d := range e.spec.PerLayer {
				declared[d.Name] = true
				if _, ok := rep.metrics[d.Name]; !ok {
					t.Errorf("declared per-layer metric %s was not produced", d.Name)
				}
			}
			for got := range rep.metrics {
				if !declared[got] {
					t.Errorf("produced metric %s is not declared in BENCHMARK.json", got)
				}
			}
		})
	}
}

// TestScrapeDelta covers the Prometheus-text parser and its delta rule,
// including a counter that was reset between the scrapes.
func TestScrapeDelta(t *testing.T) {
	before, err := parseScrape(`# HELP fafnet_x_total X.
# TYPE fafnet_x_total counter
fafnet_x_total{op="admit"} 10
fafnet_x_total{op="release"} 7
fafnet_h_seconds_bucket{op="admit",le="+Inf"} 4
fafnet_h_seconds_sum{op="admit"} 0.5
fafnet_reset_total 100
`)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseScrape(`fafnet_x_total{op="admit"} 25
fafnet_x_total{op="release"} 7
fafnet_h_seconds_bucket{op="admit",le="+Inf"} 9
fafnet_h_seconds_sum{op="admit"} 1.25
fafnet_reset_total 3
fafnet_new_total 2
`)
	if err != nil {
		t.Fatal(err)
	}
	d := delta(before, after)
	for key, want := range map[string]float64{
		`fafnet_x_total{op="admit"}`:                    15,
		`fafnet_x_total{op="release"}`:                  0,
		`fafnet_h_seconds_bucket{op="admit",le="+Inf"}`: 5,
		`fafnet_h_seconds_sum{op="admit"}`:              0.75,
		`fafnet_reset_total`:                            3, // went backwards: reset, so all of it is new
		`fafnet_new_total`:                              2,
	} {
		if got := d[key]; got != want {
			t.Errorf("delta[%s] = %v, want %v", key, got, want)
		}
	}
	if got := d.sum("fafnet_x_total"); got != 15 {
		t.Errorf("sum over the family = %v, want 15", got)
	}
	if got := d.sum("fafnet_x_total", `op="release"`); got != 0 {
		t.Errorf("sum over one label = %v, want 0", got)
	}
	if _, err := parseScrape("fafnet_bad"); err == nil {
		t.Error("a sample without a value parsed")
	}
}

// TestCompareVerdicts covers the four verdicts of -compare.
func TestCompareVerdicts(t *testing.T) {
	lower := metricDecl{Name: "latency_chunk_mean_ms", Better: "lower", Bound: 0.10}
	higher := metricDecl{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name       string
		d          metricDecl
		base, next []float64
		want       string
	}{
		{"within", lower, []float64{10, 10.1, 9.9}, []float64{10.5, 10.4, 10.6}, "within bound"},
		{"worse", lower, []float64{10, 10.1, 9.9}, []float64{12, 12.1, 11.9}, "worse"},
		{"better", higher, []float64{100, 101, 99}, []float64{120, 121, 119}, "better"},
		{"worse higher", higher, []float64{100, 101, 99}, []float64{80, 81, 79}, "worse"},
		{"unresolved", lower, []float64{10, 14, 8, 12}, []float64{11, 15, 9, 13}, "unresolved"},
		{"wide but disjoint", lower, []float64{10, 14, 8, 12}, []float64{20, 28, 16, 24}, "worse"},
		{"single runs", lower, []float64{10}, []float64{10.5}, "within bound"},
	} {
		if got := judge(c.d, c.base, c.next).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	// The quartiles are Python's statistics.quantiles(n=4): for 1..10 they
	// are 2.75 and 8.25 around a median of 5.5.
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

// TestSliceStats covers the calibrated clock: a window on a host running at
// half speed reads like the same window on the nominal machine, one frozen
// slice in ten does not move the result, and a slow-down in a fifth of the
// slices does.
func TestSliceStats(t *testing.T) {
	t0 := time.Unix(1_000_000, 0)
	// build lays slices end to end, one reading of the clock after each; a
	// slice of cost c holds two ops of latency c/2 and lasts c/speed seconds.
	build := func(speed float64, costs []float64) *windowResult {
		w := &windowResult{clock: &hostClock{}}
		at := t0
		for _, c := range costs {
			end := at.Add(time.Duration(c / speed * float64(time.Second)))
			w.lats = append(w.lats, c/2/speed, c/2/speed)
			w.ops += 2
			w.slices = append(w.slices, timeSlice{start: at, end: end, busy: end.Sub(at), lats: len(w.lats), ops: w.ops})
			w.clock.at = append(w.clock.at, end)
			w.clock.speed = append(w.clock.speed, speed)
			at = end
		}
		return w
	}
	flat := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	frozen := []float64{1, 1, 1, 9, 1, 1, 1, 1, 1, 1}
	slowed := []float64{1, 1, 1, 5, 1, 1, 1, 5, 1, 1}
	for _, c := range []struct {
		name      string
		w         *windowResult
		perOp, ms float64
	}{
		{"nominal host", build(1, flat), 0.5, 0.5},
		{"host at half speed", build(0.5, flat), 0.5, 0.5},
		{"one frozen slice in ten", build(1, frozen), 0.5, 0.5},
		{"two slow slices in ten", build(0.5, slowed), 0.75, 0.75},
	} {
		perOp, lat := c.w.sliceStats()
		if !units.AlmostEq(perOp, c.perOp) || !units.AlmostEq(lat, c.ms) {
			t.Errorf("%s: %v s per op and latency %v, want %v and %v", c.name, perOp, lat, c.perOp, c.ms)
		}
	}
}
