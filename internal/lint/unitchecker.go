package lint

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"runtime"
	"strings"

	"fafnet/internal/lint/facts"
)

// This file implements the `go vet -vettool` driver protocol — a
// dependency-free equivalent of golang.org/x/tools/go/analysis/unitchecker.
// The go command invokes the tool three ways:
//
//	fafvet -V=full        print a version line keyed by the binary's hash
//	fafvet -flags         print the supported flags as JSON
//	fafvet [flags] x.cfg  analyze one package described by the JSON config
//
// The .cfg file names the package's sources and maps each import path to a
// compiler export-data file; type-checking therefore needs no network, no
// GOPATH and no source for dependencies.

// Config is the per-package configuration the go command writes for vet
// tools. Field names and semantics follow cmd/go's vetConfig.
type Config struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// ModulePath is the import-path prefix of the packages this suite analyzes
// in depth. Dependency packages outside the module (the standard library)
// get an empty fact file and are otherwise skipped.
const ModulePath = "fafnet"

// InModule reports whether the import path names a package of this module.
func InModule(path string) bool {
	return path == ModulePath || strings.HasPrefix(path, ModulePath+"/")
}

// ShortPkg abbreviates a module package path for diagnostics: fafnet/internal/signaling → signaling, fafnet/cmd/fafcacd →
// fafcacd, fafnet/internal/lint/dims → lint.dims.
func ShortPkg(path string) string {
	for _, prefix := range []string{ModulePath + "/internal/", ModulePath + "/cmd/", ModulePath + "/"} {
		if rest, ok := strings.CutPrefix(path, prefix); ok {
			return strings.ReplaceAll(rest, "/", ".")
		}
	}
	return path
}

// MachinePrefix introduces one machine-readable diagnostic line on stderr
// when the tool runs with -emit=machine. The standalone driver (cmd/fafvet
// run on package patterns) greps these lines out of `go vet` output to
// aggregate diagnostics across packages.
const MachinePrefix = "fafvetdiag "

// MachineDiag is the JSON payload of one MachinePrefix line.
type MachineDiag struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

// Main is the entry point for a vettool built from lint analyzers. It never
// returns.
func Main(analyzers ...*Analyzer) {
	progname := os.Args[0]
	log.SetFlags(0)
	log.SetPrefix(progname + ": ")

	printVersion := flag.String("V", "", "print version and exit (-V=full)")
	printFlags := flag.Bool("flags", false, "print analyzer flags in JSON")
	listAnalyzers := flag.Bool("analyzers", false, "print the analyzer inventory as JSON and exit")
	emit := flag.String("emit", "text", `diagnostic format on stderr: "text" or "machine"`)
	format := flag.String("format", "text", `driver-mode output format: "text" or "sarif"`)
	output := flag.String("o", "", "driver-mode output file (default stdout)")
	enabled := make(map[string]*bool)
	for _, a := range analyzers {
		enabled[a.Name] = flag.Bool(a.Name, true, "enable the "+a.Name+" analyzer: "+firstLine(a.Doc))
	}
	flag.Parse()

	switch {
	case *printVersion == "full":
		versionLine(progname)
		os.Exit(0)
	case *printVersion != "":
		log.Fatalf("unsupported flag value: -V=%s", *printVersion)
	case *printFlags:
		flagsJSON(analyzers)
		os.Exit(0)
	case *listAnalyzers:
		analyzersJSON(analyzers)
		os.Exit(0)
	}

	args := flag.Args()
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		// Not a go-vet unit invocation: run as a standalone driver over
		// package patterns.
		var disabled []string
		for _, a := range analyzers {
			if !*enabled[a.Name] {
				disabled = append(disabled, a.Name)
			}
		}
		os.Exit(Driver(analyzers, disabled, DriverOptions{Format: *format, Output: *output}, args))
	}
	var active []*Analyzer
	for _, a := range analyzers {
		if *enabled[a.Name] {
			active = append(active, a)
		}
	}
	diags, err := runConfig(args[0], active)
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range diags {
		if *emit == "machine" {
			data, err := json.Marshal(MachineDiag{
				Analyzer: d.Analyzer,
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Message:  d.Message,
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "%s%s\n", MachinePrefix, data)
		} else {
			fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", d.Pos, d.Message, d.Analyzer)
		}
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
	os.Exit(0)
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// versionLine prints the tool identification the go command's build cache
// expects: "<prog> version devel comments-go-here buildID=<content hash>".
func versionLine(progname string) {
	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Open(exe)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", progname, string(h.Sum(nil)[:16]))
}

// flagsJSON prints the flag inventory `go vet` queries before running the
// tool, in the format cmd/go/internal/vet expects.
func flagsJSON(analyzers []*Analyzer) {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	flags := []jsonFlag{
		{Name: "V", Bool: false, Usage: "print version and exit"},
		{Name: "flags", Bool: true, Usage: "print analyzer flags in JSON"},
		{Name: "emit", Bool: false, Usage: "diagnostic format on stderr: text or machine"},
	}
	for _, a := range analyzers {
		flags = append(flags, jsonFlag{Name: a.Name, Bool: true, Usage: firstLine(a.Doc)})
	}
	data, err := json.MarshalIndent(flags, "", "\t")
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(append(data, '\n'))
}

// analyzersJSON prints the machine-readable analyzer inventory in
// registration order: name, the first line of the doc, and the Go type
// names of the facts the analyzer exports. The cmd/fafvet docs test diffs
// this listing against the README analyzer table in both directions.
func analyzersJSON(analyzers []*Analyzer) {
	type entry struct {
		Name  string   `json:"name"`
		Doc   string   `json:"doc"`
		Facts []string `json:"facts,omitempty"`
	}
	list := make([]entry, 0, len(analyzers))
	for _, a := range analyzers {
		list = append(list, entry{Name: a.Name, Doc: firstLine(a.Doc), Facts: a.FactTypes})
	}
	data, err := json.MarshalIndent(list, "", "\t")
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(append(data, '\n'))
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// runConfig analyzes the one package described by cfgFile and returns its
// diagnostics.
func runConfig(cfgFile string, analyzers []*Analyzer) ([]Diagnostic, error) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return nil, fmt.Errorf("reading vet config: %w", err)
	}
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("parsing vet config %s: %w", cfgFile, err)
	}

	inModule := InModule(cfg.ImportPath)
	if cfg.VetxOnly {
		// A dependency vetted only for its facts. Standard-library (and any
		// other out-of-module) packages carry no fafnet facts: write the
		// placeholder the go command's cache expects and skip the analysis.
		if !inModule || !anyExportsFacts(analyzers) {
			return nil, writeVetx(cfg.VetxOutput, nil)
		}
		var factOnly []*Analyzer
		for _, a := range analyzers {
			if a.ExportsFacts {
				factOnly = append(factOnly, a)
			}
		}
		analyzers = factOnly
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return nil, writeVetx(cfg.VetxOutput, nil)
			}
			return nil, err
		}
		files = append(files, f)
	}

	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			path = importPath
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compilerImporter.Import(path)
	})

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	tc := &types.Config{
		Importer:  imp,
		GoVersion: cfg.GoVersion,
		Sizes:     types.SizesFor(cfg.Compiler, runtime.GOARCH),
	}
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, writeVetx(cfg.VetxOutput, nil)
		}
		return nil, fmt.Errorf("typechecking %s: %w", cfg.ImportPath, err)
	}

	imported := make(map[string]facts.File)
	for path, file := range cfg.PackageVetx {
		data, err := os.ReadFile(file)
		if err != nil {
			continue // dependency not vetted with facts; degrade to no facts
		}
		f, err := facts.Decode(data)
		if err != nil {
			return nil, fmt.Errorf("facts for %s: %w", path, err)
		}
		imported[path] = f
	}

	diags, exported, err := Run(fset, files, pkg, info, analyzers, imported)
	if err != nil {
		return nil, err
	}
	encoded, err := facts.Encode(exported)
	if err != nil {
		return nil, err
	}
	if err := writeVetx(cfg.VetxOutput, encoded); err != nil {
		return nil, err
	}
	if cfg.VetxOnly {
		return nil, nil
	}
	return diags, nil
}

// anyExportsFacts reports whether any analyzer participates in the facts
// protocol.
func anyExportsFacts(analyzers []*Analyzer) bool {
	for _, a := range analyzers {
		if a.ExportsFacts {
			return true
		}
	}
	return false
}

// writeVetx writes the package's fact file. The go command caches and reuses
// this file, so it must exist (possibly empty) after every successful run.
func writeVetx(path string, data []byte) error {
	if path == "" {
		return nil
	}
	if err := os.WriteFile(path, data, 0o666); err != nil {
		return fmt.Errorf("writing facts output: %w", err)
	}
	return nil
}
