package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// buildTool compiles the fafvet binary into a temporary directory and
// returns its path.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "fafvet")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building fafvet: %v\n%s", err, out)
	}
	return bin
}

// vetModule runs `go vet -vettool=bin ./...` inside dir and returns the
// combined output and whether vet succeeded.
func vetModule(t *testing.T, bin, dir string) (string, bool) {
	t.Helper()
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	return string(out), err == nil
}

// writeModule materializes a throwaway module named fafnet so the analyzers'
// path-based scoping applies to its packages.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module fafnet\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// seededCases re-introduce one violation each into a scratch module. Every
// registered analyzer needs at least one (TestEveryAnalyzerHasSeededCase):
// an analyzer that cannot be shown to catch anything cannot be registered.
var seededCases = []struct {
	name     string
	analyzer string // the one analyzer that reports, alone
	files    map[string]string
	want     string // diagnostic substring expected in the vet output
}{
	{
		name:     "randsrc global rand",
		analyzer: "randsrc",
		files: map[string]string{"internal/des/bad.go": `package des

import "math/rand"

func Jitter() float64 { return rand.Float64() }
`},
		want: "breaks seeded replay",
	},
	{
		name:     "randsrc wall clock in the workload generator",
		analyzer: "randsrc",
		files: map[string]string{"internal/workload/bad.go": `package workload

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`},
		want: "time.Now reads the wall clock, which no seeded replay reproduces",
	},
	{
		name:     "epslit raw tolerance literal",
		analyzer: "epslit",
		files: map[string]string{"internal/core/bad.go": `package core

var ttrt = 4e-3
`},
		want: "raw physical literal",
	},
	{
		name:     "floatcmp exact comparison",
		analyzer: "floatcmp",
		files: map[string]string{"internal/core/bad.go": `package core

func Beats(delayA, delayB float64) bool { return delayA <= delayB }
`},
		want: "units.AlmostLE",
	},
	{
		name:     "unitcheck dimension mismatch",
		analyzer: "unitcheck",
		files: map[string]string{"internal/core/bad.go": `package core

func Sum(delay, rateBps float64) float64 { return delay + rateBps }
`},
		want: "cross-dimension addition",
	},
	{
		// Two packages: the parameter's name travels in a's export data,
		// so b's argument is checked with no fact file.
		name:     "unitcheck cross-package argument against a parameter name",
		analyzer: "unitcheck",
		files: map[string]string{
			"internal/core/a/a.go": `package a

// Wait holds a frame for queueDelay seconds.
func Wait(queueDelay float64) { _ = queueDelay }
`,
			"internal/core/b/b.go": `package b

import "fafnet/internal/core/a"

func Use(frameBits float64) { a.Wait(frameBits) }
`,
		},
		want: `argument is bits but parameter "queueDelay" of Wait wants seconds`,
	},
	{
		name:     "desorder goroutine in event handler",
		analyzer: "desorder",
		files: map[string]string{"internal/des/bad.go": `package des

type Sim struct{}

func (s *Sim) Schedule(t float64, fire func()) error { fire(); _ = t; return nil }

func Chatter(s *Sim, done chan int) error {
	return s.Schedule(1, func() {
		go func() { done <- 1 }()
	})
}
`},
		want: "goroutine spawned inside a DES event handler",
	},
	{
		// The server simulators schedule their own handlers: the port, ring,
		// interface-device and regulator packages are in scope too.
		name:     "desorder channel send in an atm port handler",
		analyzer: "desorder",
		files: map[string]string{"internal/atm/bad.go": `package atm

type Sim struct{}

func (s *Sim) After(d float64, fire func()) error { fire(); _ = d; return nil }

func Drain(s *Sim, sent chan int) error {
	return s.After(1, func() { sent <- 1 })
}
`},
		want: "inside a DES event handler",
	},
	{
		name:     "locks wait under mutex",
		analyzer: "locks",
		files: map[string]string{"internal/signaling/bad.go": `package signaling

import "sync"

type Srv struct {
	mu sync.Mutex
	wg sync.WaitGroup
}

func (s *Srv) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wg.Wait()
}
`},
		want: "WaitGroup.Wait while s.mu is held",
	},
	{
		// A metrics helper holds its own lock while it registers into
		// another package's locked registry: only the registry's {Locks}
		// fact shows the nesting.
		name:     "locks nested acquisition across packages",
		analyzer: "locks",
		files: map[string]string{
			"internal/obs/obs.go": `package obs

import "sync"

// Registry poses as the metrics registry.
type Registry struct{ mu sync.Mutex }

// Counter registers one child.
func (r *Registry) Counter(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(name)
}
`,
			"internal/workload/metrics.go": `package workload

import (
	"sync"

	"fafnet/internal/obs"
)

type classVec struct {
	mu  sync.Mutex
	reg *obs.Registry
}

func (v *classVec) counter(class string) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.reg.Counter(class)
}
`,
		},
		want: "call to v.reg.Counter acquires a mutex while v.mu is held",
	},
	{
		// Two packages: the annotation on Table.Rows travels to the
		// consumer as an exported fact.
		name:     "locks cross-package unlocked access",
		analyzer: "locks",
		files: map[string]string{
			"internal/state/state.go": `package state

import "sync"

// Table is shared state with an exported guard.
type Table struct {
	Mu sync.Mutex
	// Rows is the live row set. guarded by Mu.
	Rows map[string]int
}
`,
			"internal/user/user.go": `package user

import "fafnet/internal/state"

func Bad(t *state.Table) int { return t.Rows["x"] }
`,
		},
		want: "accessed without holding",
	},
	{
		// errdrop matches obs.AuditLog by its module path, so the scratch
		// module (named fafnet) can pose its own.
		name:     "errdrop dropped audit sync",
		analyzer: "errdrop",
		files: map[string]string{
			"internal/obs/obs.go": `package obs

// AuditLog poses as the real audit log.
type AuditLog struct{}

// Sync flushes.
func (l *AuditLog) Sync() error { return nil }
`,
			"internal/daemon/bad.go": `package daemon

import "fafnet/internal/obs"

func Stop(l *obs.AuditLog) {
	_ = l.Sync()
}
`,
		},
		want: "the error from (obs.AuditLog).Sync is dropped",
	},
	{
		// The analysis packages are in the determinism scope too: a bound
		// that reads the wall clock is not reproducible.
		name:     "randsrc wall clock in traffic",
		analyzer: "randsrc",
		files: map[string]string{"internal/traffic/bad.go": `package traffic

import "time"

func stamp() float64 { return float64(time.Now().UnixNano()) }
`},
		want: "time.Now reads the wall clock, which no seeded replay reproduces; take time as a value (a parameter, or Simulator.Now in a simulator)",
	},
	{
		name:     "randsrc function-style atomic beside a plain read",
		analyzer: "randsrc",
		files: map[string]string{"internal/stats/bad.go": `package stats

import "sync/atomic"

type Ctr struct{ n uint64 }

func (c *Ctr) Inc() { atomic.AddUint64(&c.n, 1) }

func (c *Ctr) Read() uint64 { return c.n }
`},
		want: "function-style atomic.AddUint64",
	},
	{
		// The plain read sits in another package; the ban needs no fact to
		// see the call that makes it a hazard.
		name:     "randsrc function-style atomic read plainly across packages",
		analyzer: "randsrc",
		files: map[string]string{
			"internal/stats/stats.go": `package stats

import "sync/atomic"

// Hits counts admissions.
var Hits uint64

// Bump records one.
func Bump() { atomic.AddUint64(&Hits, 1) }
`,
			"internal/view/view.go": `package view

import "fafnet/internal/stats"

func Snapshot() uint64 { return stats.Hits }
`,
		},
		want: "declare it as a typed atomic",
	},
	{
		name:     "errdrop dropped ring release",
		analyzer: "errdrop",
		files: map[string]string{"internal/fddi/bad.go": `package fddi

// Ring poses as the bandwidth bookkeeper.
type Ring struct{}

// Release frees id's allocation.
func (r *Ring) Release(id string) bool { return id != "" }

func Drop(r *Ring) {
	r.Release("c1")
}
`},
		want: "the bool from fddi.Ring.Release is dropped",
	},
}

// TestSeededViolationsFail checks that the suite rejects each seeded
// violation, through the named analyzer and no other: zero findings over
// this repository are only meaningful if the gate actually trips.
func TestSeededViolationsFail(t *testing.T) {
	bin := buildTool(t)
	for _, tc := range seededCases {
		t.Run(tc.name, func(t *testing.T) {
			dir := writeModule(t, tc.files)
			out, ok := vetModule(t, bin, dir)
			if ok {
				t.Fatalf("vet passed on a module seeded with a %s violation", tc.name)
			}
			if !strings.Contains(out, tc.want) {
				t.Errorf("vet output does not contain %q:\n%s", tc.want, out)
			}
			suffix := " (" + tc.analyzer + ")"
			for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
				if !strings.HasPrefix(line, "#") && !strings.HasSuffix(line, suffix) {
					t.Errorf("%s is not the only analyzer reporting: %s", tc.analyzer, line)
				}
			}
		})
	}
}

// TestEveryAnalyzerHasSeededCase fails when an analyzer is registered in
// suite() without a seeded violation that trips it.
func TestEveryAnalyzerHasSeededCase(t *testing.T) {
	seeded := make(map[string]bool)
	for _, tc := range seededCases {
		seeded[tc.analyzer] = true
	}
	for _, a := range suite() {
		if !seeded[a.Name] {
			t.Errorf("analyzer %q is registered but no case of seededCases trips it", a.Name)
		}
	}
}

// TestCleanModulePasses checks the other side of the gate: conformant code
// (named constants, tolerance comparisons, seeded RNG plumbing) vets clean.
func TestCleanModulePasses(t *testing.T) {
	bin := buildTool(t)
	dir := writeModule(t, map[string]string{
		"internal/core/good.go": `package core

// defaultTTRT is the target token rotation time (seconds).
const defaultTTRT = 4e-3

func Later(delayA, delayB float64) bool { return delayA < delayB }
`,
	})
	if out, ok := vetModule(t, bin, dir); !ok {
		t.Fatalf("vet failed on a clean module:\n%s", out)
	}
}

// TestAnalyzersListing checks the -analyzers machine-readable inventory
// against the registry: same names in the same order, a doc line for every
// entry, and the declared fact types for the fact-exporting analyzers.
func TestAnalyzersListing(t *testing.T) {
	bin := buildTool(t)
	out, err := exec.Command(bin, "-analyzers").Output()
	if err != nil {
		t.Fatalf("fafvet -analyzers: %v", err)
	}
	var list []struct {
		Name  string   `json:"name"`
		Doc   string   `json:"doc"`
		Facts []string `json:"facts"`
	}
	if err := json.Unmarshal(out, &list); err != nil {
		t.Fatalf("parsing -analyzers output: %v\n%s", err, out)
	}
	reg := suite()
	if len(list) != len(reg) {
		t.Fatalf("-analyzers lists %d analyzers, registry has %d", len(list), len(reg))
	}
	for i, a := range reg {
		if list[i].Name != a.Name {
			t.Errorf("entry %d = %q, want %q", i, list[i].Name, a.Name)
		}
		if list[i].Doc == "" {
			t.Errorf("entry %q has an empty doc line", list[i].Name)
		}
		if !reflect.DeepEqual(list[i].Facts, a.FactTypes) {
			t.Errorf("entry %q facts = %v, want %v", list[i].Name, list[i].Facts, a.FactTypes)
		}
		if a.ExportsFacts && len(a.FactTypes) == 0 {
			t.Errorf("analyzer %q exports facts but declares no FactTypes", a.Name)
		}
	}
}

// TestRepoIsClean runs the suite over this repository in driver mode: the
// tree must stay at zero findings, so the vet gate keeps meaning "no new
// violations". Line-local //lint:allow comments are the only waiver.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repository vet sweep in -short mode")
	}
	bin := buildTool(t)
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "./...")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("fafvet reports findings on the repository: %v\n%s", err, out)
	}
}
