package lint

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"fafnet/internal/lint/sarif"
)

// This file implements fafvet's standalone driver mode. Invoked on package
// patterns instead of a .cfg file, the binary re-invokes the go command
// against itself —
//
//	go vet -vettool=<self> -emit=machine <patterns>
//
// — so the go command keeps doing what it is good at (loading packages,
// export data, the facts cache), while this process aggregates the
// machine-readable diagnostics across packages and emits text or SARIF.
// Exit codes: 0 clean, 2 findings, 1 operational failure (go vet could not
// run, or failed without reporting a finding).

// DriverOptions configure the standalone driver.
type DriverOptions struct {
	Format string // "text" or "sarif"
	Output string // output file; empty means stdout
}

// Driver runs the standalone aggregation mode and returns the process exit
// code. disabled lists analyzers to pass through as -name=false.
func Driver(analyzers []*Analyzer, disabled []string, opts DriverOptions, patterns []string) int {
	switch opts.Format {
	case "", "text", "sarif":
	default:
		fmt.Fprintf(os.Stderr, "fafvet: unknown -format %q (want text or sarif)\n", opts.Format)
		return 1
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "fafvet: %v\n", err)
		return 1
	}
	args := []string{"vet", "-vettool=" + exe, "-emit=machine"}
	for _, name := range disabled {
		args = append(args, "-"+name+"=false")
	}
	args = append(args, patterns...)
	out, vetErr := exec.Command("go", args...).CombinedOutput()

	diags, noise := parseMachineOutput(out)
	if vetErr != nil && len(diags) == 0 {
		// go vet failed without producing a single diagnostic: an operational
		// error (no go command, bad pattern, compile failure), not findings.
		fmt.Fprintf(os.Stderr, "fafvet: go vet failed: %v\n", vetErr)
		for _, line := range noise {
			fmt.Fprintln(os.Stderr, line)
		}
		return 1
	}
	for _, line := range noise {
		fmt.Fprintln(os.Stderr, line)
	}

	relativizeFiles(diags)
	diags = dedupe(diags)
	sortMachine(diags)

	var rendered []byte
	if opts.Format == "sarif" {
		rendered, err = renderSARIF(analyzers, diags)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fafvet: %v\n", err)
			return 1
		}
	} else {
		var b strings.Builder
		for _, d := range diags {
			fmt.Fprintf(&b, "%s:%d:%d: %s (%s)\n", d.File, d.Line, d.Column, d.Message, d.Analyzer)
		}
		rendered = []byte(b.String())
	}
	if opts.Output != "" {
		if err := os.WriteFile(opts.Output, rendered, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "fafvet: %v\n", err)
			return 1
		}
	} else {
		os.Stdout.Write(rendered)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// parseMachineOutput splits go vet output into machine diagnostics and the
// remaining human-readable noise (package headers are dropped).
func parseMachineOutput(out []byte) (diags []MachineDiag, noise []string) {
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, MachinePrefix):
			var d MachineDiag
			if err := json.Unmarshal([]byte(line[len(MachinePrefix):]), &d); err == nil {
				diags = append(diags, d)
				continue
			}
			noise = append(noise, line)
		case strings.HasPrefix(line, "#"), strings.TrimSpace(line) == "":
			// "# fafnet/internal/..." package headers carry no information
			// the diagnostics don't.
		case strings.HasPrefix(line, "exit status"):
		default:
			noise = append(noise, line)
		}
	}
	return diags, noise
}

// relativizeFiles rewrites absolute file names relative to the working
// directory, with forward slashes, so output is stable across checkouts.
func relativizeFiles(diags []MachineDiag) {
	cwd, err := os.Getwd()
	if err != nil {
		return
	}
	for i := range diags {
		if rel, err := filepath.Rel(cwd, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].File = filepath.ToSlash(rel)
		}
	}
}

// dedupe removes identical diagnostics: a package and its test variant are
// vetted separately and re-report the same positions.
func dedupe(diags []MachineDiag) []MachineDiag {
	seen := make(map[MachineDiag]bool, len(diags))
	var out []MachineDiag
	for _, d := range diags {
		if seen[d] {
			continue
		}
		seen[d] = true
		out = append(out, d)
	}
	return out
}

// sortMachine orders diagnostics by file, line, column, analyzer, message.
func sortMachine(diags []MachineDiag) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// renderSARIF converts diagnostics to a SARIF 2.1.0 log. Every registered
// analyzer appears as a rule (plus "lint" for suppression hygiene) so a
// clean run still documents what was checked.
func renderSARIF(analyzers []*Analyzer, diags []MachineDiag) ([]byte, error) {
	ruleDocs := map[string]string{
		"lint": "unused //lint:allow suppressions",
	}
	for _, a := range analyzers {
		ruleDocs[a.Name] = firstLine(a.Doc)
	}
	findings := make([]sarif.Finding, 0, len(diags))
	for _, d := range diags {
		findings = append(findings, sarif.Finding{
			Analyzer: d.Analyzer,
			File:     d.File,
			Line:     d.Line,
			Column:   d.Column,
			Message:  d.Message,
		})
	}
	log := sarif.Build("fafvet", "https://github.com/fafnet/fafnet", ruleDocs, findings)
	return log.Encode()
}
