package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"text/tabwriter"
)

// runCompare applies BENCHMARK.json's bounds to two results files (base,
// then new) and prints one row per workload and end-to-end metric. A metric
// is worse or better when the medians differ by more than its bound, as a
// share of the base median. Where either side's own runs spread wider than
// the bound the row reads unresolved, unless every run of one side beats
// every run of the other. Any worse row, and any fingerprint that differs
// under equal seeds, makes the command exit nonzero.
func runCompare(args []string, w io.Writer) error {
	if len(args) != 2 {
		return errors.New("-compare takes two results files: base.json new.json")
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	base, err := loadResults(args[0])
	if err != nil {
		return err
	}
	next, err := loadResults(args[1])
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tbase median\tnew median\tnew/base\tbound\tbase spread\tnew spread\tverdict\n")
	var worse int
	for _, wl := range spec.Workloads {
		a, b := base.Workloads[wl.Name], next.Workloads[wl.Name]
		if a == nil || b == nil {
			return fmt.Errorf("workload %s is missing from a results file", wl.Name)
		}
		if base.Seed == next.Seed {
			verdict := "equal"
			if !slices.Equal(a.Fingerprints, b.Fingerprints) {
				verdict = "DIFFERS"
				worse++
			}
			fmt.Fprintf(tw, "%s\tfingerprint\t%v\t%v\t\t\t\t\t%s\n", wl.Name, first(a.Fingerprints), first(b.Fingerprints), verdict)
		}
		for _, d := range spec.EndToEnd {
			xs, ys := a.EndToEnd[d.Name], b.EndToEnd[d.Name]
			if len(xs) == 0 || len(ys) == 0 {
				return fmt.Errorf("%s %s is missing from a results file", wl.Name, d.Name)
			}
			v := judge(d, xs, ys)
			if v.verdict == "worse" {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%.4f of %.6g\t%.2f\t%s\t%s\t%s\n", wl.Name, d.Name,
				v.baseMedian, d.Unit, v.newMedian, d.Unit, v.newMedian/v.baseMedian, v.baseMedian,
				d.Bound, spreadText(v.baseSpread), spreadText(v.newSpread), v.verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if worse > 0 {
		return fmt.Errorf("%d rows are worse than the base by more than their bound", worse)
	}
	return nil
}

func first(xs []string) string {
	if len(xs) == 0 {
		return "-"
	}
	return xs[0]
}

func spreadText(s float64) string {
	if s < 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.4f", s)
}

func loadResults(path string) (*results, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

type judgement struct {
	baseMedian, newMedian float64
	baseSpread, newSpread float64 // quartile distance ÷ median; −1 with one run
	verdict               string
}

// judge compares two sets of runs of one metric.
func judge(d metricDecl, base, next []float64) judgement {
	j := judgement{
		baseMedian: median(base), newMedian: median(next),
		baseSpread: spread(base), newSpread: spread(next),
	}
	// change > 0 means the new side is worse, as a share of the base median.
	change := (j.newMedian - j.baseMedian) / j.baseMedian
	worseThan := func(x, y float64) bool { return x > y }
	if d.Better == "higher" {
		change = -change
		worseThan = func(x, y float64) bool { return x < y }
	}
	all := func(xs, ys []float64) bool { // every x is worse than every y
		for _, x := range xs {
			for _, y := range ys {
				if !worseThan(x, y) {
					return false
				}
			}
		}
		return true
	}
	switch {
	case max(j.baseSpread, j.newSpread) > d.Bound && all(next, base):
		j.verdict = "worse"
	case max(j.baseSpread, j.newSpread) > d.Bound && all(base, next):
		j.verdict = "better"
	case max(j.baseSpread, j.newSpread) > d.Bound:
		j.verdict = "unresolved"
	case change > d.Bound:
		j.verdict = "worse"
	case change < -d.Bound:
		j.verdict = "better"
	default:
		j.verdict = "within bound"
	}
	return j
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spread is the distance between the first and third quartile as a share
// of the median, with the quartiles Python's statistics.quantiles(n=4)
// gives (the exclusive method); −1 when there are fewer than two runs.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return -1
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / median(xs)
}
