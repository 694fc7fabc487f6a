package main

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fafnet/internal/core"
	"fafnet/internal/sim"
)

func TestParseList(t *testing.T) {
	tests := []struct {
		name    string
		in      string
		def     []float64
		want    []float64
		wantErr bool
	}{
		{"empty uses default", "", []float64{1, 2}, []float64{1, 2}, false},
		{"single", "0.5", nil, []float64{0.5}, false},
		{"list with spaces", "0.1, 0.2 ,0.3", nil, []float64{0.1, 0.2, 0.3}, false},
		{"garbage", "a,b", nil, nil, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := parseList(tt.in, tt.def)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tt.wantErr)
			}
			if err != nil {
				return
			}
			if len(got) != len(tt.want) {
				t.Fatalf("got %v, want %v", got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Errorf("got %v, want %v", got, tt.want)
				}
			}
		})
	}
}

func TestWriteCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.csv")
	series := []sim.Series{
		{Label: "U=0.3", Points: []sim.Point{{X: 0, AP: 0.71, CI: 0.04}, {X: 1, AP: 0.66, CI: 0.05}}},
	}
	if err := writeCSV(path, "beta", []float64{0, 1}, series); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(string(raw))).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if rows[0][0] != "beta" || rows[0][1] != "U=0.3" {
		t.Errorf("header = %v", rows[0])
	}
	if rows[1][1] != "0.7100" {
		t.Errorf("data = %v", rows[1])
	}
}

func TestRenderChart(t *testing.T) {
	series := []sim.Series{
		{Label: "U=0.3", Points: []sim.Point{{X: 0, AP: 0.7}, {X: 1, AP: 0.6}}},
	}
	out := renderChart("title", "beta", series)
	if !strings.Contains(out, "title") || !strings.Contains(out, "U=0.3") {
		t.Errorf("chart missing pieces:\n%s", out)
	}
}

func TestRunBetaSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	base := sim.Config{Requests: 15, Warmup: 3, Seed: 1}
	if err := runBeta(base, "0.4", "0.5", false); err != nil {
		t.Fatal(err)
	}
	if err := runLoad(base, "0.4", "0.5", false); err != nil {
		t.Fatal(err)
	}
	if err := runAblation(base, "0.4", 0.5, false); err != nil {
		t.Fatal(err)
	}
	if err := runCalibrate(3, 1, 12); err != nil {
		t.Fatal(err)
	}
	if err := runBeta(base, "bogus", "", false); err == nil {
		t.Error("bad utils list should error")
	}
}

// TestWarmupZeroMeansNone pins -warmup 0 to no warm-up requests: sim.Config
// reads a zero Warmup as its default of 50, so the flag's 0 must not reach it
// unchanged.
func TestWarmupZeroMeansNone(t *testing.T) {
	cfg := baseConfig(30, 0, 1, 0, 12)
	cfg.Utilization = 0.6
	got, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(sim.Config{Requests: 30, Warmup: -1, Seed: 1, Utilization: 0.6, CAC: core.Options{SearchIters: 12}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("-warmup 0 ran\n%+v\nwant the no-warm-up run\n%+v", got, want)
	}
}

// TestExperimentsFigureTables reruns Figures 7 and 8 at the commands and
// seeds EXPERIMENTS.md documents and requires its two tables, and the charts
// under them, to be what the code prints today: a change that moves an
// admission probability must regenerate them. Each figure takes seconds.
func TestExperimentsFigureTables(t *testing.T) {
	if testing.Short() {
		t.Skip("two full figure sweeps")
	}
	raw, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	for _, fig := range []struct {
		section, next string
		seed          int64
		sweep         func(sim.Config) ([]sim.Series, error)
		title, xName  string
		xs            []float64
	}{
		{"## Figure 7", "## Figure 8", 1,
			func(base sim.Config) ([]sim.Series, error) { return sim.BetaSweep(base, fig7Utils, fig7Betas) },
			"Figure 7: AP vs beta", "beta", fig7Betas},
		{"## Figure 8", "## E3", 2,
			func(base sim.Config) ([]sim.Series, error) { return sim.LoadSweep(base, fig8Betas, fig8Utils) },
			"Figure 8: AP vs offered utilization", "U", fig8Utils},
	} {
		start, end := strings.Index(doc, fig.section), strings.Index(doc, fig.next)
		if start < 0 || end < start {
			t.Fatalf("EXPERIMENTS.md has no section %q before %q", fig.section, fig.next)
		}
		section := doc[start:end]
		// The defaults of `fafsim -requests 400 -seed N`.
		series, err := fig.sweep(baseConfig(400, 50, fig.seed, 0, 12))
		if err != nil {
			t.Fatal(err)
		}
		var rows strings.Builder
		for i, x := range fig.xs {
			fmt.Fprintf(&rows, "| %.1f |", x)
			for _, s := range series {
				fmt.Fprintf(&rows, " %.4f |", s.Points[i].AP)
			}
			rows.WriteString("\n")
		}
		if !strings.Contains(section, rows.String()) {
			t.Errorf("%s: the table in EXPERIMENTS.md is not what seed %d gives; the code prints\n%s", fig.section, fig.seed, rows.String())
		}
		// Markdown keeps no trailing blanks, so the chart's lines are
		// compared without them.
		chart := trimLineEnds(renderChart(fig.title, fig.xName, series))
		if !strings.Contains(trimLineEnds(section), chart) {
			t.Errorf("%s: the chart in EXPERIMENTS.md is not what seed %d gives; the code draws\n%s", fig.section, fig.seed, chart)
		}
	}
}

// trimLineEnds drops the blanks at the end of every line of s.
func trimLineEnds(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " ")
	}
	return strings.Join(lines, "\n")
}
