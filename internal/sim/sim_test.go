package sim

import (
	"math"
	"testing"

	"fafnet/internal/core"
	"fafnet/internal/topo"
	"fafnet/internal/traffic"
	"fafnet/internal/units"
)

// fastCfg returns a configuration small enough for unit tests.
func fastCfg(u float64, seed int64) Config {
	return Config{
		Utilization: u,
		Requests:    60,
		Warmup:      10,
		Seed:        seed,
		CAC: core.Options{
			SearchIters: 10,
		},
	}
}

func TestRunBasics(t *testing.T) {
	res, err := Run(fastCfg(0.3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.AP.Trials() != 60 {
		t.Errorf("counted %d requests, want 60", res.AP.Trials())
	}
	ap := res.AP.Value()
	if ap < 0 || ap > 1 {
		t.Fatalf("AP = %v", ap)
	}
	if res.Duration <= 0 {
		t.Errorf("Duration = %v", res.Duration)
	}
	if res.MeanActive < 0 {
		t.Errorf("MeanActive = %v", res.MeanActive)
	}
	if res.AchievedUtilization < 0 || res.AchievedUtilization > 1 {
		t.Errorf("AchievedUtilization = %v", res.AchievedUtilization)
	}
	// Light load must admit most requests.
	if ap < 0.5 {
		t.Errorf("AP at U=0.3 = %v, suspiciously low", ap)
	}
	// Rejection counts must reconcile with AP.
	rejected := 0
	for _, n := range res.Rejections {
		rejected += n
	}
	if res.AP.Successes()+rejected != res.AP.Trials() {
		t.Errorf("admitted %d + rejected %d != %d trials", res.AP.Successes(), rejected, res.AP.Trials())
	}
}

func TestRunDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full admission runs in -short mode")
	}
	a, err := Run(fastCfg(0.5, 42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(fastCfg(0.5, 42))
	if err != nil {
		t.Fatal(err)
	}
	if a.AP.Value() != b.AP.Value() || a.Duration != b.Duration {
		t.Errorf("same seed diverged: AP %v vs %v, duration %v vs %v",
			a.AP.Value(), b.AP.Value(), a.Duration, b.Duration)
	}
	c, err := Run(fastCfg(0.5, 43))
	if err != nil {
		t.Fatal(err)
	}
	if a.AP.Value() == c.AP.Value() && a.Duration == c.Duration {
		t.Error("different seeds produced identical runs")
	}
}

func TestRunValidation(t *testing.T) {
	for _, u := range []float64{0, -0.5} {
		if _, err := Run(fastCfg(u, 1)); err == nil {
			t.Errorf("utilization %v should be rejected", u)
		}
	}
}

func TestArrivalRateFormula(t *testing.T) {
	topology := topo.Default()
	got := arrivalRate(0.9, topology)
	// The reference capacity is the ring-limited per-link share with
	// allocation headroom: 3 · 100e6·(1 − 0.25/4) · 0.4 / 3 = 37.5 Mb/s.
	wantCap := 100e6 * (1 - 0.25/4.0) * 0.4
	// λ = U·L·µ·C/ρ with L = 3 backbone links, 1/µ = 60 s, ρ = 5 Mb/s.
	if want := 0.9 * 3 * (1.0 / 60) * wantCap / 5e6; !units.WithinRel(got, want, 1e-9) {
		t.Errorf("arrivalRate = %v, want %v", got, want)
	}
	// The paper's literal formula references the raw 155 Mb/s link: its U
	// is this U × 37.5/155 for the same λ.
	literalU := 0.9 * wantCap / 155e6
	if want := literalU * 3 * (1.0 / 60) * 155e6 / 5e6; !units.WithinRel(got, want, 1e-9) {
		t.Errorf("arrivalRate = %v, want the literal formula's %v", got, want)
	}
	// Bit for bit the formula on run-time float64 operands: the constants
	// folded in exact arithmetic (µ = 1/60, ρ = C1/P1) round to what float64
	// division of the rounded operands gives, so no arrival time moves.
	var u, c1, p1, life float64 = 0.9, sourceC1, sourceP1, meanLifetime
	ring := topology.Ring
	links := float64(topology.NumRings)
	capacity := float64(topology.NumRings) * (ring.BandwidthBps * (1 - ring.Overhead/ring.TTRT)) * 0.4 / links
	if want := u * links * (1 / life) * capacity / (c1 / p1); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("arrivalRate = %#x, want %#x", math.Float64bits(got), math.Float64bits(want))
	}
}

func TestHigherLoadLowersAP(t *testing.T) {
	if testing.Short() {
		t.Skip("load comparison runs in -short mode")
	}
	low, err := Run(fastCfg(0.2, 7))
	if err != nil {
		t.Fatal(err)
	}
	high, err := Run(fastCfg(1.0, 7))
	if err != nil {
		t.Fatal(err)
	}
	if high.AP.Value() > low.AP.Value() {
		t.Errorf("AP rose with load: U=0.2 → %v, U=1.0 → %v", low.AP.Value(), high.AP.Value())
	}
}

func TestBetaSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("β sweep in -short mode")
	}
	base := fastCfg(0, 3)
	base.Requests = 40
	base.Warmup = 5
	series, err := BetaSweep(base, []float64{0.3}, []float64{0, 0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 || len(series[0].Points) != 3 {
		t.Fatalf("series shape: %+v", series)
	}
	for _, p := range series[0].Points {
		if p.AP < 0 || p.AP > 1 {
			t.Errorf("AP(β=%v) = %v", p.X, p.AP)
		}
		if p.Result.AP.Trials() != 40 {
			t.Errorf("point β=%v counted %d trials", p.X, p.Result.AP.Trials())
		}
	}
	if series[0].Label != "U=0.3" {
		t.Errorf("label = %q", series[0].Label)
	}
}

func TestLoadSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("load sweep in -short mode")
	}
	base := fastCfg(0, 5)
	base.Requests = 40
	base.Warmup = 5
	series, err := LoadSweep(base, []float64{0.5}, []float64{0.2, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 || len(series[0].Points) != 2 {
		t.Fatalf("series shape: %+v", series)
	}
	if series[0].Points[0].X != 0.2 || series[0].Points[1].X != 0.8 {
		t.Errorf("x coordinates: %+v", series[0].Points)
	}
}

func TestRuleSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("rule sweep in -short mode")
	}
	base := fastCfg(0, 9)
	base.Requests = 30
	base.Warmup = 5
	series, err := RuleSweep(base, []core.Rule{core.RuleProportional, core.RuleFixedSplit}, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series count = %d", len(series))
	}
	if series[0].Label != "proportional" || series[1].Label != "fixed-split" {
		t.Errorf("labels: %q, %q", series[0].Label, series[1].Label)
	}
}

func TestDestBiasSkewsMatrix(t *testing.T) {
	// With full bias, every remote request from rings 1..2 targets ring 0,
	// so ring 0's allocations should dominate.
	cfg := fastCfg(0.6, 13)
	cfg.Requests = 40
	cfg.Warmup = 5
	cfg.DestBias = 1.0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AP.Trials() != 40 {
		t.Fatalf("trials = %d", res.AP.Trials())
	}
	// A biased matrix must still complete and keep AP within range; the
	// structural check (destinations on ring 0) is embedded in the arrival
	// handler, so reaching here without panics exercises it.
	if v := res.AP.Value(); v < 0 || v > 1 {
		t.Errorf("AP = %v", v)
	}
}

// TestSourceParams pins the Section 6 source of Eq. 37: it builds, and its
// long-term rate is ρ = C1/P1 = 5 Mb/s (Eq. 38), the same float64 whether
// folded as a constant or divided at run time.
func TestSourceParams(t *testing.T) {
	var c1, p1 float64 = sourceC1, sourceP1
	if sourceRho != 5e6 || c1/p1 != sourceRho {
		t.Errorf("rho = %v (run time %v), want 5e6", float64(sourceRho), c1/p1)
	}
	d, err := traffic.NewDualPeriodic(sourceC1, sourceP1, sourceC2, sourceP2, sourcePeakBps)
	if err != nil {
		t.Fatalf("NewDualPeriodic: %v", err)
	}
	if got := d.LongTermRate(); !units.AlmostEq(got, sourceRho) {
		t.Errorf("LongTermRate = %v, want %v", got, float64(sourceRho))
	}
}

// TestRunGolden pins Run's draw order (gap, source, bias, destination,
// deadline, and a lifetime after an admit only) to values captured when the
// analyses began reading their extrema off the envelope (levels and segments,
// not a candidate grid), with deadlines compared exactly: one draw moved,
// dropped or added anywhere in the loop changes every number below. Three (U, β, seed) points
// and one with a destination bias; the second also drops arrivals that found
// no idle host. The last two run E4's baselines to Section 5.3's proportional
// rule, fixed-split and sender-biased, at U 0.8, β 0.5.
func TestRunGolden(t *testing.T) {
	for _, g := range []struct {
		u, beta, bias                   float64
		rule                            core.Rule
		seed                            int64
		admitted                        int
		meanActive, duration, meanSlack uint64
		skipped                         int
	}{
		{0.3, 0, 0, core.RuleProportional, 1, 59, 0x401090c4393f405f, 0x408c18bed0583764, 0x3f85241329acce6e, 0},
		{0.6, 0.5, 0, core.RuleProportional, 2, 52, 0x402029f1b576fec1, 0x4077515be0f96c2a, 0x3f9484fba2df4304, 1},
		{0.9, 1, 0, core.RuleProportional, 3, 26, 0x401ee9b051048254, 0x407108c295fccdfb, 0x3f9823529c11425a, 0},
		{0.9, 0.5, 0.7, core.RuleProportional, 4, 43, 0x402087f736c881c1, 0x40721cb1ac3ae045, 0x3f9226654d022b87, 2},
		{0.8, 0.5, 0, core.RuleFixedSplit, 6, 65, 0x40235446d039b831, 0x40791058c2b752c1, 0x3f962a7cd674cc7a, 28},
		{0.8, 0.5, 0, core.RuleSenderBiased, 7, 12, 0x4000ea84cae933b0, 0x4073eb0ee639fc0c, 0x3f949e23778a1c32, 0},
	} {
		res, err := Run(Config{Utilization: g.u, Requests: 80, Warmup: 10, Seed: g.seed, DestBias: g.bias,
			CAC: core.Options{Beta: g.beta, BetaSet: true, Rule: g.rule}})
		if err != nil {
			t.Fatal(err)
		}
		if res.AP.Successes() != g.admitted || res.AP.Trials() != 80 || res.SkippedNoIdleHost != g.skipped ||
			math.Float64bits(res.MeanActive) != g.meanActive || math.Float64bits(res.Duration) != g.duration ||
			math.Float64bits(res.SlackAtAdmission.Mean()) != g.meanSlack {
			t.Errorf("U=%v β=%v bias=%v %v seed %d: %d/%d admitted, %d skipped, mean active %#x, duration %#x, mean slack %#x; want %d/80, %d, %#x, %#x, %#x",
				g.u, g.beta, g.bias, g.rule, g.seed, res.AP.Successes(), res.AP.Trials(), res.SkippedNoIdleHost,
				math.Float64bits(res.MeanActive), math.Float64bits(res.Duration), math.Float64bits(res.SlackAtAdmission.Mean()),
				g.admitted, g.skipped, g.meanActive, g.duration, g.meanSlack)
		}
	}
}
