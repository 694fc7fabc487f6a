package sim

import (
	"fmt"
	"runtime"
	"sync"

	"fafnet/internal/core"
)

// Point is one measured coordinate of a figure series.
type Point struct {
	// X is the swept parameter (β for Figure 7, U for Figure 8).
	X float64
	// AP is the measured admission probability.
	AP float64
	// CI is the half-width of the 95% confidence interval on AP.
	CI float64
	// Result carries the full run statistics.
	Result Result
}

// Series is one labeled curve of a figure.
type Series struct {
	Label  string
	Points []Point
}

// job is one independent simulation in a sweep.
type job struct {
	series, point int
	cfg           Config
	x             float64
}

// runJobs executes jobs in parallel (each owns an isolated network,
// controller and RNG) and stores each result in out.
func runJobs(jobs []job, out []Series) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var (
		wg sync.WaitGroup
		mu sync.Mutex
		// first records the first worker error. guarded by mu.
		first error
	)
	ch := make(chan job)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				res, err := Run(j.cfg)
				mu.Lock()
				if err != nil && first == nil {
					first = fmt.Errorf("sim: sweep point (series %d, x=%v): %w", j.series, j.x, err)
				}
				out[j.series].Points[j.point] = Point{X: j.x, AP: res.AP.Value(), CI: res.AP.CI95(), Result: res}
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
	// Every worker has exited, but the happens-before edge the annotation
	// can see is the lock itself.
	mu.Lock()
	defer mu.Unlock()
	return first
}

// pointSeed derives a distinct deterministic seed per sweep point.
func pointSeed(base int64, series, point int) int64 {
	return base + int64(series)*1_000_003 + int64(point)*7919
}

// sweep runs one simulation per (series, x) coordinate: base edited by set,
// seeded by pointSeed, collected into one labeled series per label.
func sweep(base Config, labels []string, xs []float64, set func(cfg *Config, si, pi int)) ([]Series, error) {
	out := make([]Series, len(labels))
	var jobs []job
	for si, label := range labels {
		out[si] = Series{Label: label, Points: make([]Point, len(xs))}
		for pi, x := range xs {
			cfg := base
			set(&cfg, si, pi)
			cfg.Seed = pointSeed(base.Seed, si, pi)
			jobs = append(jobs, job{series: si, point: pi, cfg: cfg, x: x})
		}
	}
	if err := runJobs(jobs, out); err != nil {
		return nil, err
	}
	return out, nil
}

// seriesLabels formats one series label per value.
func seriesLabels[T any](format string, vs []T) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = fmt.Sprintf(format, v)
	}
	return out
}

// BetaSweep reproduces Figure 7: admission probability against β, one
// series per offered utilization.
func BetaSweep(base Config, utils, betas []float64) ([]Series, error) {
	return sweep(base, seriesLabels("U=%.2g", utils), betas, func(cfg *Config, si, pi int) {
		cfg.Utilization = utils[si]
		cfg.CAC.Beta, cfg.CAC.BetaSet = betas[pi], true
	})
}

// LoadSweep reproduces Figure 8: admission probability against offered
// utilization, one series per β.
func LoadSweep(base Config, betas, utils []float64) ([]Series, error) {
	return sweep(base, seriesLabels("beta=%.2g", betas), utils, func(cfg *Config, si, pi int) {
		cfg.Utilization = utils[pi]
		cfg.CAC.Beta, cfg.CAC.BetaSet = betas[si], true
	})
}

// RuleSweep is the E4 ablation: admission probability against offered
// utilization, one series per allocation rule, at the base configuration's β.
func RuleSweep(base Config, rules []core.Rule, utils []float64) ([]Series, error) {
	return sweep(base, seriesLabels("%v", rules), utils, func(cfg *Config, si, pi int) {
		cfg.Utilization = utils[pi]
		cfg.CAC.Rule = rules[si]
	})
}
