package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// results is the file -all writes and -compare reads: for every workload,
// every run's value of every metric, in run order (run k uses seed+k).
type results struct {
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Runs      int                        `json:"runs"`
	Go        string                     `json:"go"`
	CPUs      int                        `json:"cpus"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	// Fingerprints holds one decision-stream fingerprint per run.
	Fingerprints []string `json:"fingerprints"`
	Attempted    int      `json:"attempted"`
	Failed       int      `json:"failed"`
	// EndToEnd and PerLayer map metric name → one value per run.
	EndToEnd map[string][]float64 `json:"end_to_end"`
	PerLayer map[string][]float64 `json:"per_layer,omitempty"`
}

// runAll runs every workload in a process of its own, so that memory and
// warm state never leak from one workload into the next, and writes
// results.json to -out. With -trace 1 each run is followed by its traced
// twin, whose fingerprint must match.
func runAll(o options, runs int, w io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	res := results{Seed: o.seed, Seconds: o.seconds, Runs: runs, Go: runtime.Version(), CPUs: runtime.NumCPU(),
		Workloads: make(map[string]*workloadResult)}
	var failed []string
	for _, def := range workloads {
		name := def.name
		wr := &workloadResult{EndToEnd: make(map[string][]float64), PerLayer: make(map[string][]float64)}
		res.Workloads[name] = wr
		for k := 0; k < runs; k++ {
			seed := o.seed + int64(k)
			plain, fp, err := runChild(self, o, name, seed, false, w)
			if err != nil {
				failed = append(failed, fmt.Sprintf("%s seed %d: %v", name, seed, err))
				continue
			}
			wr.record(plain, wr.EndToEnd)
			wr.Fingerprints = append(wr.Fingerprints, fp)
			if !o.trace {
				continue
			}
			traced, tfp, err := runChild(self, o, name, seed, true, w)
			if err != nil {
				failed = append(failed, fmt.Sprintf("%s seed %d traced: %v", name, seed, err))
				continue
			}
			wr.record(traced, wr.PerLayer)
			if tfp != fp {
				failed = append(failed, fmt.Sprintf("%s seed %d: fingerprint %s untraced, %s traced", name, seed, fp, tfp))
			}
		}
	}
	raw, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(o.out, "results.json")
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "# wrote %s\n", path)
	if len(failed) > 0 {
		return errors.New(strings.Join(failed, "; "))
	}
	return nil
}

func (wr *workloadResult) record(r runResult, into map[string][]float64) {
	wr.Attempted += r.Attempted
	wr.Failed += r.Failed
	for name, v := range r.Metrics {
		into[name] = append(into[name], v.Value)
	}
}

// runChild runs one workload once in a child process, copies its output
// through, and parses the result line and the fingerprint line.
func runChild(self string, o options, name string, seed int64, traced bool, w io.Writer) (runResult, string, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", trace, "-out", o.out}
	var out bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout = io.MultiWriter(&out, w)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return r, "", errors.Join(runErr, fmt.Errorf("no result line: %w", err))
	}
	var fp string
	for _, line := range lines {
		if f := strings.Fields(line); len(f) > 2 && f[0] == "fingerprint" {
			fp = f[2]
		}
	}
	return r, fp, runErr
}
