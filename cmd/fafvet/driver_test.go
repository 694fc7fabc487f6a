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

func TestDriverJSONOutput(t *testing.T) {
	bin := buildTool(t)
	dir := writeModule(t, map[string]string{"internal/core/bad.go": badCoreSrc})
	stdout, stderr, code := runDriver(t, bin, dir, "-format=json")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (findings)\nstderr: %s", code, stderr)
	}
	var diags []struct {
		Analyzer string `json:"analyzer"`
		File     string `json:"file"`
		Line     int    `json:"line"`
		Column   int    `json:"column"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(stdout), &diags); err != nil {
		t.Fatalf("driver -format=json output is not JSON: %v\n%s", err, stdout)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1:\n%s", len(diags), stdout)
	}
	d := diags[0]
	if d.Analyzer != "unitcheck" || d.File != "internal/core/bad.go" || d.Line == 0 {
		t.Errorf("unexpected diagnostic %+v", d)
	}
	if !strings.Contains(d.Message, "cross-dimension addition") {
		t.Errorf("message %q does not describe the seeded violation", d.Message)
	}
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

func TestDriverBaselineSuppressesKnownFindings(t *testing.T) {
	bin := buildTool(t)
	dir := writeModule(t, map[string]string{"internal/core/bad.go": badCoreSrc})
	baseline := `{
  "comment": "test waiver",
  "findings": [
    {
      "analyzer": "unitcheck",
      "file": "internal/core/bad.go",
      "message": "cross-dimension addition: seconds + bits/second"
    }
  ]
}
`
	if err := os.WriteFile(filepath.Join(dir, "baseline.json"), []byte(baseline), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := runDriver(t, bin, dir, "-baseline=baseline.json")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (finding baselined)\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if strings.TrimSpace(stdout) != "" {
		t.Errorf("baselined run still printed findings:\n%s", stdout)
	}
}

// TestDriverNewFindingFailsDespiteBaseline checks the ratchet's other jaw:
// a baseline only waives the findings it lists — anything new still trips
// the gate.
func TestDriverNewFindingFailsDespiteBaseline(t *testing.T) {
	bin := buildTool(t)
	dir := writeModule(t, map[string]string{"internal/core/bad.go": `package core

func SumA(delay, rateBps float64) float64 { return delay + rateBps }

func SumB(delay, sizeBits float64) float64 { return delay + sizeBits }
`})
	baseline := `{
  "findings": [
    {
      "analyzer": "unitcheck",
      "file": "internal/core/bad.go",
      "message": "cross-dimension addition: seconds + bits/second"
    }
  ]
}
`
	if err := os.WriteFile(filepath.Join(dir, "baseline.json"), []byte(baseline), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := runDriver(t, bin, dir, "-baseline=baseline.json")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (one finding is not baselined)\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "seconds + bits") {
		t.Errorf("output does not contain the unbaselined finding:\n%s", stdout)
	}
	if strings.Contains(stdout, "bits/second") {
		t.Errorf("output still contains the baselined finding:\n%s", stdout)
	}
}

// TestDriverStaleBaselineFails checks the ratchet: a baseline entry whose
// finding no longer exists is itself a finding, so waivers cannot outlive
// their reason.
func TestDriverStaleBaselineFails(t *testing.T) {
	bin := buildTool(t)
	dir := writeModule(t, map[string]string{"internal/core/good.go": `package core

// defaultTTRT is the target token rotation time (seconds).
const defaultTTRT = 4e-3
`})
	baseline := `{
  "findings": [
    {"analyzer": "unitcheck", "file": "internal/core/good.go", "message": "long gone"}
  ]
}
`
	if err := os.WriteFile(filepath.Join(dir, "baseline.json"), []byte(baseline), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := runDriver(t, bin, dir, "-baseline=baseline.json")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (stale entry)\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "stale baseline entry") {
		t.Errorf("output does not flag the stale entry:\n%s", stdout)
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

// TestDriverDotOutput checks -format=dot: the lock graph lands on stdout as
// a Graphviz digraph, edges completing a cycle are highlighted, ordinary
// edges are not, and the cycle finding itself still gates the exit code (on
// stderr, so stdout stays valid dot).
func TestDriverDotOutput(t *testing.T) {
	bin := buildTool(t)
	dir := writeModule(t, map[string]string{"internal/signaling/locks.go": `package signaling

import "sync"

var a, b, c, d sync.Mutex

func AB() {
	a.Lock()
	b.Lock()
	b.Unlock()
	a.Unlock()
}

func BA() {
	b.Lock()
	a.Lock()
	a.Unlock()
	b.Unlock()
}

func CD() {
	c.Lock()
	d.Lock()
	d.Unlock()
	c.Unlock()
}
`})
	stdout, stderr, code := runDriver(t, bin, dir, "-format=dot")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (the a/b cycle is still a finding)\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "inconsistent lock order") {
		t.Errorf("stderr does not carry the cycle finding:\n%s", stderr)
	}
	if !strings.HasPrefix(stdout, "digraph lockgraph {") || !strings.HasSuffix(strings.TrimSpace(stdout), "}") {
		t.Fatalf("stdout is not a dot digraph:\n%s", stdout)
	}
	for _, want := range []string{
		`"signaling.a" -> "signaling.b" [color=red, penwidth=2.0];`,
		`"signaling.b" -> "signaling.a" [color=red, penwidth=2.0];`,
		`"signaling.c" -> "signaling.d";`,
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("dot output is missing %q:\n%s", want, stdout)
		}
	}
	if strings.Contains(stdout, `"signaling.c" -> "signaling.d" [color=red`) {
		t.Errorf("acyclic edge drawn as a cycle:\n%s", stdout)
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
