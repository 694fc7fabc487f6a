// Package facts defines the serialized fact files that carry analyzer
// results across package boundaries, mirroring the golang.org/x/tools
// unitchecker facts protocol: when the go command vets a package it hands the
// tool one fact file per dependency (Config.PackageVetx) and a path to write
// this package's own facts (Config.VetxOutput). Facts make interprocedural
// analyses — locks carrying per-function {Locks, Blocks} summaries and
// exported-field guards across packages — work under the ordinary
// `go vet -vettool` driver with no whole-program loading.
//
// A fact file is a single JSON object: analyzer name → fact key → raw JSON
// fact value. encoding/json marshals map keys in sorted order, so encoding is
// deterministic and fact files are byte-stable across runs — a requirement
// for the go command's content-addressed action cache.
package facts

import (
	"encoding/json"
	"fmt"
)

// File is the decoded content of one package's fact file: analyzer name →
// fact key → raw encoded fact. Keys are analyzer-defined (locks uses
// "Func", "Type.Method" and "Type.Field" object paths).
type File map[string]map[string]json.RawMessage

// Decode parses a fact file. Empty input (the placeholder written for
// packages with no facts, e.g. the standard library) decodes to an empty,
// usable File.
func Decode(data []byte) (File, error) {
	if len(data) == 0 {
		return File{}, nil
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("facts: decoding fact file: %w", err)
	}
	if f == nil {
		f = File{}
	}
	return f, nil
}

// Encode serializes a fact file deterministically. A nil or empty File
// encodes to an empty byte slice, so packages without facts keep the
// zero-length placeholder file the protocol always writes.
func Encode(f File) ([]byte, error) {
	if len(f) == 0 {
		return nil, nil
	}
	data, err := json.Marshal(f)
	if err != nil {
		return nil, fmt.Errorf("facts: encoding fact file: %w", err)
	}
	return data, nil
}

// Set records one fact under (analyzer, key), replacing any previous value.
func (f File) Set(analyzer, key string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("facts: encoding fact %s/%s: %w", analyzer, key, err)
	}
	m := f[analyzer]
	if m == nil {
		m = make(map[string]json.RawMessage)
		f[analyzer] = m
	}
	m[key] = raw
	return nil
}

// Get decodes the fact stored under (analyzer, key) into out and reports
// whether it was present.
func (f File) Get(analyzer, key string, out any) bool {
	m, ok := f[analyzer]
	if !ok {
		return false
	}
	raw, ok := m[key]
	if !ok {
		return false
	}
	return json.Unmarshal(raw, out) == nil
}
