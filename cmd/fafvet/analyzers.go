package main

import (
	"fafnet/internal/lint"
	"fafnet/internal/lint/desorder"
	"fafnet/internal/lint/epslit"
	"fafnet/internal/lint/errdrop"
	"fafnet/internal/lint/floatcmp"
	"fafnet/internal/lint/locks"
	"fafnet/internal/lint/randsrc"
	"fafnet/internal/lint/unitcheck"
)

// suite returns the registered analyzers in their canonical order — the
// order the README table, the -analyzers listing and the SARIF rule list
// all present them in. The docs test diffs this registry against the
// README table in both directions.
func suite() []*lint.Analyzer {
	return []*lint.Analyzer{
		unitcheck.Analyzer,
		floatcmp.Analyzer,
		epslit.Analyzer,
		randsrc.Analyzer,
		desorder.Analyzer,
		locks.Analyzer,
		errdrop.Analyzer,
	}
}
