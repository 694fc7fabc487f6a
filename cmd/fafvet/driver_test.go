package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// badCoreSrc seeds one unitcheck finding (cross-dimension addition).
const badCoreSrc = `package core

func Sum(delay, rateBps float64) float64 { return delay + rateBps }
`

// runDriver executes the fafvet binary in standalone driver mode inside dir
// and returns stdout, stderr and the exit code.
func runDriver(t *testing.T, bin, dir string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(bin, append(args, "./...")...)
	cmd.Dir = dir
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("running driver: %v", err)
	}
	return stdout.String(), stderr.String(), code
}

// TestDriverSARIFOutput checks the SARIF 2.1.0 shape GitHub code scanning
// ingests: schema/version markers, a named driver with rules, and results
// whose locations carry repo-relative URIs and start lines.
func TestDriverSARIFOutput(t *testing.T) {
	bin := buildTool(t)
	dir := writeModule(t, map[string]string{"internal/core/bad.go": badCoreSrc})
	out := filepath.Join(t.TempDir(), "fafvet.sarif")
	_, stderr, code := runDriver(t, bin, dir, "-format=sarif", "-o", out)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2\nstderr: %s", code, stderr)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID  string `json:"ruleId"`
				Level   string `json:"level"`
				Message struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("-format=sarif output is not JSON: %v", err)
	}
	if !strings.Contains(log.Schema, "sarif-schema-2.1.0") || log.Version != "2.1.0" {
		t.Errorf("schema/version = %q/%q, want SARIF 2.1.0 markers", log.Schema, log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "fafvet" {
		t.Errorf("tool name = %q, want fafvet", run.Tool.Driver.Name)
	}
	rules := make(map[string]bool)
	for _, r := range run.Tool.Driver.Rules {
		rules[r.ID] = true
	}
	for _, a := range suite() {
		if !rules[a.Name] {
			t.Errorf("rules are missing analyzer %q", a.Name)
		}
	}
	if len(run.Results) != 1 {
		t.Fatalf("got %d results, want 1", len(run.Results))
	}
	res := run.Results[0]
	loc := res.Locations[0].PhysicalLocation
	if res.RuleID != "unitcheck" || res.Level != "error" ||
		loc.ArtifactLocation.URI != "internal/core/bad.go" || loc.Region.StartLine == 0 {
		t.Errorf("unexpected result %+v", res)
	}
}

// TestDriverUnusedAllowReported checks suppression hygiene end to end: a
// //lint:allow comment with no matching finding is reported.
func TestDriverUnusedAllowReported(t *testing.T) {
	bin := buildTool(t)
	dir := writeModule(t, map[string]string{"internal/core/good.go": `package core

//lint:allow floatcmp nothing here needs suppressing
func Halve(delay float64) float64 { return delay / 2 }
`})
	stdout, stderr, code := runDriver(t, bin, dir)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (unused suppression)\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "unused //lint:allow floatcmp") {
		t.Errorf("output does not report the unused suppression:\n%s", stdout)
	}
}

// TestDriverOutputDeterministic runs the driver twice over a module with
// findings in several files and checks byte-identical, sorted output.
func TestDriverOutputDeterministic(t *testing.T) {
	bin := buildTool(t)
	dir := writeModule(t, map[string]string{
		"internal/core/zeta.go": `package core

func SumA(delay, rateBps float64) float64 { return delay + rateBps }

func SumB(delay, sizeBits float64) float64 { return delay + sizeBits }
`,
		"internal/core/alpha.go": `package core

func SumC(delay, rateBps float64) float64 { return delay + rateBps }
`,
	})
	first, _, code := runDriver(t, bin, dir)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	second, _, _ := runDriver(t, bin, dir)
	if first != second {
		t.Errorf("two driver runs differ:\n--- first\n%s--- second\n%s", first, second)
	}
	lines := strings.Split(strings.TrimSpace(first), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d findings, want 3:\n%s", len(lines), first)
	}
	if !strings.HasPrefix(lines[0], "internal/core/alpha.go") ||
		!strings.HasPrefix(lines[1], "internal/core/zeta.go:3") ||
		!strings.HasPrefix(lines[2], "internal/core/zeta.go:5") {
		t.Errorf("findings are not sorted by file/line:\n%s", first)
	}
}

// TestDriverFailsWhenVetCannotRun runs the driver with no go command on
// PATH: go vet never starts, so there is no finding to report and the run
// must not read as clean.
func TestDriverFailsWhenVetCannotRun(t *testing.T) {
	bin := buildTool(t)
	dir := writeModule(t, map[string]string{"internal/core/bad.go": badCoreSrc})
	cmd := exec.Command(bin, "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "PATH="+filepath.Join(dir, "no-such-dir"))
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("driver without go on PATH: err = %v, want exit status 1\nstdout: %s\nstderr: %s", err, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "go vet failed") {
		t.Errorf("stderr does not name the failure:\n%s", stderr.String())
	}
}
