package main

import (
	"bufio"
	"os"
	"regexp"
	"strings"
	"testing"
)

// readmeAnalyzerTable extracts the analyzer names from the README's
// "| Analyzer | Enforces |" table, in row order.
func readmeAnalyzerTable(t *testing.T) []string {
	t.Helper()
	f, err := os.Open("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	row := regexp.MustCompile("^\\| `([a-z]+)` \\|")
	var names []string
	inTable := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "| Analyzer |"):
			inTable = true
		case inTable && strings.HasPrefix(line, "|"):
			if m := row.FindStringSubmatch(line); m != nil {
				names = append(names, m[1])
			}
		case inTable:
			inTable = false
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("no analyzer table found in README.md")
	}
	return names
}

// TestReadmeAnalyzerTableMatchesRegistry diffs the README analyzer table
// against the registered suite in both directions (and in order), and keeps
// the written-out count in the prose honest.
func TestReadmeAnalyzerTableMatchesRegistry(t *testing.T) {
	documented := readmeAnalyzerTable(t)
	var registered []string
	for _, a := range suite() {
		registered = append(registered, a.Name)
	}

	doc := make(map[string]bool, len(documented))
	for _, n := range documented {
		doc[n] = true
	}
	reg := make(map[string]bool, len(registered))
	for _, n := range registered {
		reg[n] = true
	}
	for _, n := range registered {
		if !doc[n] {
			t.Errorf("analyzer %q is registered but missing from the README table", n)
		}
	}
	for _, n := range documented {
		if !reg[n] {
			t.Errorf("analyzer %q is in the README table but not registered", n)
		}
	}
	if t.Failed() {
		return
	}
	if strings.Join(documented, " ") != strings.Join(registered, " ") {
		t.Errorf("README table order %v != registration order %v", documented, registered)
	}

	counts := map[int]string{7: "Seven", 8: "Eight", 9: "Nine", 10: "Ten", 11: "Eleven", 12: "Twelve", 13: "Thirteen", 14: "Fourteen", 15: "Fifteen", 16: "Sixteen"}
	word, ok := counts[len(registered)]
	if !ok {
		t.Fatalf("no count word for %d analyzers; extend the table in this test", len(registered))
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	if want := word + " analyzers run:"; !strings.Contains(string(readme), want) {
		t.Errorf("README prose does not say %q; the analyzer count drifted", want)
	}
}
