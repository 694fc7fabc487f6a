// Command fafvet is this repository's static-analysis suite. It runs two
// ways. As a vet tool, per package:
//
//	go build -o bin/fafvet ./cmd/fafvet
//	go vet -vettool=$(pwd)/bin/fafvet ./...
//
// And as a standalone driver over package patterns, which re-invokes go vet
// against itself, aggregates diagnostics across packages, and emits text or
// SARIF 2.1.0:
//
//	bin/fafvet ./...
//	bin/fafvet -format=sarif -o fafvet.sarif ./...
//
// It bundles seven analyzers that enforce the correctness conventions the
// Go type system cannot see (README "Static analysis & unit conventions"):
//
//	unitcheck    dimensional consistency of float64 seconds/bits/bps, by the
//	             names of variables, fields, parameters, results and callees
//	floatcmp     no exact ==/<=/>= between computed physical quantities
//	epslit       no raw tolerance/physical-constant literals
//	randsrc      no unseeded randomness or wall-clock reads in simulators and
//	             the analysis, no function-style sync/atomic anywhere (typed
//	             atomics only)
//	desorder     no goroutines/channels/sleeps/global writes in DES handlers
//	locks        locks are leaves (no mutex acquired while another is held),
//	             no blocking calls under a lock, and "guarded by <mu>"
//	             annotations hold at every access
//	errdrop      no dropped errors on audit, deadline, flush or release calls
//
// -analyzers prints the machine-readable inventory (name, doc line, exported
// fact types) as JSON. Individual analyzers can be disabled with
// -<name>=false. Findings are suppressed in source with a justified comment
// (unused suppressions are themselves findings):
//
//	//lint:allow <analyzer> <reason>
package main

import "fafnet/internal/lint"

func main() {
	lint.Main(suite()...)
}
