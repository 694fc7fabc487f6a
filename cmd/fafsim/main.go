// Command fafsim regenerates the paper's evaluation figures: admission
// probability against β (Figure 7), against offered utilization (Figure 8),
// and the allocation-rule ablation (experiment E4 in DESIGN.md).
//
// Usage:
//
//	fafsim -experiment beta  [-requests 400] [-seed 1] [-plot]
//	fafsim -experiment load  [-requests 400] [-seed 1] [-plot]
//	fafsim -experiment ablation [-beta 0.5]
//	fafsim -experiment reasons [-utils 0.9]
//	fafsim -calibrate [-scenarios 100] [-seed 1]
//
// Output is a tab-separated table (one row per swept point, one column per
// series), optionally followed by an ASCII chart.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"fafnet/internal/core"
	"fafnet/internal/obs"
	"fafnet/internal/plot"
	"fafnet/internal/sim"
)

func main() {
	var (
		experiment = flag.String("experiment", "beta", "beta (Figure 7), load (Figure 8), ablation (E4), or reasons")
		calibrate  = flag.Bool("calibrate", false, "run the calibration sweep (E11) instead of an -experiment")
		scenarios  = flag.Int("scenarios", 100, "randomized scenarios in the -calibrate sweep")
		requests   = flag.Int("requests", 400, "admission requests counted per point")
		warmup     = flag.Int("warmup", 50, "requests excluded from statistics (0 = none)")
		seed       = flag.Int64("seed", 1, "base random seed")
		beta       = flag.Float64("beta", 0.5, "beta for the ablation experiment")
		destBias   = flag.Float64("dest-bias", 0, "probability a request targets the hot ring 0 (asymmetric load)")
		utilsFlag  = flag.String("utils", "", "comma-separated utilizations (defaults per experiment)")
		betasFlag  = flag.String("betas", "", "comma-separated betas (defaults per experiment)")
		doPlot     = flag.Bool("plot", false, "render an ASCII chart after the table")
		searchIter = flag.Int("search-iters", 12, "binary-search iterations in the CAC")
		csvPath    = flag.String("csv", "", "also write the swept series to this CSV file")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		metricsDmp = flag.Bool("metrics-dump", false, "write a Prometheus-format metrics snapshot to stderr after the run")
	)
	flag.Parse()
	csvOut = *csvPath

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fafsim:", err)
		os.Exit(1)
	}

	base := baseConfig(*requests, *warmup, *seed, *destBias, *searchIter)

	// -calibrate is a mode of its own, not an -experiment value, so the two
	// flags cannot silently shadow each other.
	exp := *experiment
	if *calibrate {
		exp = "calibrate"
	}
	switch exp {
	case "calibrate":
		err = runCalibrate(*scenarios, *seed, *searchIter)
	case "beta":
		err = runBeta(base, *utilsFlag, *betasFlag, *doPlot)
	case "load":
		err = runLoad(base, *utilsFlag, *betasFlag, *doPlot)
	case "ablation":
		err = runAblation(base, *utilsFlag, *beta, *doPlot)
	case "reasons":
		err = runReasons(base, *utilsFlag, *betasFlag)
	default:
		err = fmt.Errorf("unknown experiment %q (want beta, load, ablation, or reasons)", *experiment)
	}
	// Flush profiles explicitly: os.Exit skips deferred calls, and a run that
	// fails half-way is exactly the one worth profiling.
	stopProfiles()
	if *metricsDmp {
		// Stderr so the stdout tables stay machine-parseable; dumped even on
		// failure — a half-finished sweep's counters aid the diagnosis.
		if werr := obs.Default.WritePrometheus(os.Stderr); werr != nil {
			fmt.Fprintln(os.Stderr, "fafsim: metrics dump:", werr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fafsim:", err)
		os.Exit(1)
	}
}

// baseConfig is the simulation every experiment sweeps from. sim.Config
// reads a zero Warmup as its default of 50; -warmup 0 asks for none.
func baseConfig(requests, warmup int, seed int64, destBias float64, searchIters int) sim.Config {
	if warmup <= 0 {
		warmup = -1
	}
	return sim.Config{
		Requests: requests,
		Warmup:   warmup,
		Seed:     seed,
		DestBias: destBias,
		CAC:      core.Options{SearchIters: searchIters},
	}
}

// startProfiles begins CPU profiling and/or arranges a heap snapshot, as
// requested. The returned stop function is idempotent-safe to call once at
// exit; it finishes the CPU profile and writes the heap profile.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	stop = func() {}
	if cpuPath == "" && memPath == "" {
		return stop, nil
	}
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return stop, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			if cerr := cpuFile.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "fafsim: cpuprofile:", cerr)
			}
			return stop, err
		}
	}
	stop = func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				// The profile on disk may be truncated; better a warning
				// than a silently unusable pprof file.
				fmt.Fprintln(os.Stderr, "fafsim: cpuprofile:", err)
			}
		}
		if memPath == "" {
			return
		}
		f, err := os.Create(memPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fafsim: memprofile:", err)
			return
		}
		runtime.GC() // settle the heap so the snapshot shows live data
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "fafsim: memprofile:", err)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "fafsim: memprofile:", err)
		}
	}
	return stop, nil
}

func parseList(s string, def []float64) ([]float64, error) {
	if s == "" {
		return def, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// The swept points of Figures 7 and 8 when -utils and -betas are not given.
var (
	fig7Utils = []float64{0.3, 0.6, 0.9}
	fig7Betas = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	fig8Betas = []float64{0, 0.5, 1.0}
	fig8Utils = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
)

func runBeta(base sim.Config, utilsFlag, betasFlag string, doPlot bool) error {
	utils, err := parseList(utilsFlag, fig7Utils)
	if err != nil {
		return err
	}
	betas, err := parseList(betasFlag, fig7Betas)
	if err != nil {
		return err
	}
	fmt.Println("# Figure 7: sensitivity of beta (admission probability)")
	series, err := sim.BetaSweep(base, utils, betas)
	if err != nil {
		return err
	}
	printTable("beta", betas, series)
	if doPlot {
		fmt.Println(renderChart("Figure 7: AP vs beta", "beta", series))
	}
	return nil
}

func runLoad(base sim.Config, utilsFlag, betasFlag string, doPlot bool) error {
	betas, err := parseList(betasFlag, fig8Betas)
	if err != nil {
		return err
	}
	utils, err := parseList(utilsFlag, fig8Utils)
	if err != nil {
		return err
	}
	fmt.Println("# Figure 8: sensitivity of system load (admission probability)")
	series, err := sim.LoadSweep(base, betas, utils)
	if err != nil {
		return err
	}
	printTable("U", utils, series)
	if doPlot {
		fmt.Println(renderChart("Figure 8: AP vs offered utilization", "U", series))
	}
	return nil
}

func runAblation(base sim.Config, utilsFlag string, beta float64, doPlot bool) error {
	utils, err := parseList(utilsFlag, []float64{0.3, 0.6, 0.9})
	if err != nil {
		return err
	}
	base.CAC.Beta = beta
	base.CAC.BetaSet = true
	rules := []core.Rule{core.RuleProportional, core.RuleFixedSplit, core.RuleSenderBiased}
	fmt.Printf("# E4: allocation-rule ablation at beta=%.2g (admission probability)\n", beta)
	series, err := sim.RuleSweep(base, rules, utils)
	if err != nil {
		return err
	}
	printTable("U", utils, series)
	if doPlot {
		fmt.Println(renderChart("E4: AP by allocation rule", "U", series))
	}
	return nil
}

// runReasons diagnoses WHY β's extremes lose (Section 5.3's two failure
// modes): the rejection-reason mix and the mean slack left to admitted
// connections, per β at one load level.
func runReasons(base sim.Config, utilsFlag, betasFlag string) error {
	utils, err := parseList(utilsFlag, []float64{0.9})
	if err != nil {
		return err
	}
	betas, err := parseList(betasFlag, []float64{0, 0.25, 0.5, 0.75, 1.0})
	if err != nil {
		return err
	}
	fmt.Println("# Rejection diagnosis: why the beta extremes lose")
	fmt.Println("U\tbeta\tAP\trej_tight_deadlines\trej_no_bandwidth\tmean_slack_ms\tmean_active")
	for _, u := range utils {
		for i, beta := range betas {
			cfg := base
			cfg.Utilization = u
			cfg.CAC.Beta = beta
			cfg.CAC.BetaSet = true
			cfg.Seed = pointSeedExported(base.Seed, i)
			res, err := sim.Run(cfg)
			if err != nil {
				return err
			}
			fmt.Printf("%.2g\t%.2g\t%.4f\t%d\t%d\t%.2f\t%.2f\n",
				u, beta, res.AP.Value(),
				res.Rejections[core.ReasonInfeasible],
				res.Rejections[core.ReasonNoBandwidth],
				res.SlackAtAdmission.Mean()*1e3,
				res.MeanActive)
		}
	}
	return nil
}

// pointSeedExported derives per-point seeds for the reasons experiment.
func pointSeedExported(base int64, point int) int64 { return base + int64(point)*7919 }

// csvOut, when non-empty, duplicates every printed table into a CSV file.
var csvOut string

// printTable writes one row per x value with AP±CI per series, and
// optionally mirrors the data as CSV.
func printTable(xName string, xs []float64, series []sim.Series) {
	var b strings.Builder
	b.WriteString(xName)
	for _, s := range series {
		fmt.Fprintf(&b, "\t%s\tci", s.Label)
	}
	fmt.Println(b.String())
	for i, x := range xs {
		b.Reset()
		fmt.Fprintf(&b, "%.3g", x)
		for _, s := range series {
			fmt.Fprintf(&b, "\t%.4f\t%.4f", s.Points[i].AP, s.Points[i].CI)
		}
		fmt.Println(b.String())
	}
	if csvOut == "" {
		return
	}
	if err := writeCSV(csvOut, xName, xs, series); err != nil {
		fmt.Fprintln(os.Stderr, "fafsim: writing csv:", err)
	}
}

// writeCSV stores the series in RFC-4180 form for external plotting.
func writeCSV(path, xName string, xs []float64, series []sim.Series) (err error) {
	f, cerr := os.Create(path)
	if cerr != nil {
		return cerr
	}
	defer func() {
		// Close is the last write on this path; its error is the caller's
		// only signal that the CSV on disk is short.
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	w := csv.NewWriter(f)
	header := []string{xName}
	for _, s := range series {
		header = append(header, s.Label, s.Label+"_ci")
	}
	if err := w.Write(header); err != nil {
		return err
	}
	for i, x := range xs {
		row := []string{strconv.FormatFloat(x, 'g', -1, 64)}
		for _, s := range series {
			row = append(row,
				strconv.FormatFloat(s.Points[i].AP, 'f', 4, 64),
				strconv.FormatFloat(s.Points[i].CI, 'f', 4, 64))
		}
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

// renderChart converts sweep series into the ASCII plot format.
func renderChart(title, xLabel string, series []sim.Series) string {
	ps := make([]plot.Series, len(series))
	for i, s := range series {
		xs := make([]float64, len(s.Points))
		ys := make([]float64, len(s.Points))
		for j, p := range s.Points {
			xs[j], ys[j] = p.X, p.AP
		}
		ps[i] = plot.Series{Label: s.Label, X: xs, Y: ys}
	}
	c := plot.Chart{Title: title, XLabel: xLabel, YFixed: true, YMin: 0, YMax: 1, Width: 60, Height: 16}
	return c.Render(ps)
}
