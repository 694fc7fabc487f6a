# Developer entry points. `make check` is the full pre-merge gate.

GO       ?= go
FAFVET   := bin/fafvet

.PHONY: all build fmt vet sarif race test short fuzz-smoke bench-e2e chaos calibrate docs-check check clean

all: build

build:
	$(GO) build ./...

# gofmt -l prints unformatted files; fail when any exist.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

$(FAFVET): FORCE
	$(GO) build -o $(FAFVET) ./cmd/fafvet
FORCE:

# Standard vet plus this repository's seven-analyzer suite (unitcheck,
# floatcmp, epslit, randsrc, desorder, locks, errdrop — see README
# "Static analysis & unit conventions"). fafvet's driver mode re-invokes go
# vet against itself and aggregates diagnostics across packages; locks is
# the one analyzer whose facts cross packages, and unitcheck reads names
# only. The tree carries zero findings, and //lint:allow is the only waiver.
vet: $(FAFVET)
	$(GO) vet ./...
	./$(FAFVET) ./...

# SARIF 2.1.0 report for GitHub code scanning / CI artifacts. Exit 2 means
# findings, which the vet target gates; only operational errors fail here.
sarif: $(FAFVET)
	@./$(FAFVET) -format=sarif -o fafvet.sarif ./...; \
	ec=$$?; if [ $$ec -ne 0 ] && [ $$ec -ne 2 ]; then exit $$ec; fi
	@echo "wrote fafvet.sarif"

race:
	$(GO) test -race -short ./...

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

# Ten seconds of mutation for every committed native fuzz target, one `go
# test` run each (-fuzz takes a single target): `make test` replays only
# their seed corpora. A crasher is written under the package's testdata/fuzz
# and fails the target.
FUZZ_TARGETS := \
	./internal/des:FuzzCalendarOrder \
	./internal/traffic:FuzzWorkspaceSum \
	./internal/traffic:FuzzPortWalk \
	./internal/traffic:FuzzMinFlats \
	./internal/fddi:FuzzDelayBound \
	./internal/fddi:FuzzServerBounds \
	./internal/core:FuzzDelaysAgainstClosureOracle \
	./internal/scenario:FuzzParse \
	./internal/workload:FuzzParse \
	./internal/workload:FuzzReadTrace \
	./internal/signaling:FuzzReplay \
	./internal/signaling:FuzzServerRequests \
	./internal/signaling:FuzzWireCodec

fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		echo "fuzz $$t"; \
		$(GO) test $${t%%:*} -run '^$$' -fuzz "^$${t##*:}\$$" -fuzztime 10s -parallel 2 || exit 1; \
	done

# The fault-injection suite: the full seed × fault-profile chaos matrix over
# the signaling stack plus the faultnet package's own tests, under the race
# detector. `make race` already runs a -short slice of this; here the matrix
# runs in full.
chaos:
	$(GO) test -race -run 'TestChaos' -v ./internal/signaling/
	$(GO) test -race ./internal/faultnet/

# The calibration sweep (E11 in EXPERIMENTS.md): randomized multi-class
# scenarios, each admitted, trace-replayed for bit-identity, and cross-
# checked packet-by-packet against the analytic Eq. 7 bounds. Exits nonzero
# on any measured delay above its bound or any replay divergence. Another
# sweep size or seed is `go run ./cmd/fafsim -calibrate -scenarios N -seed S`.
calibrate:
	$(GO) run ./cmd/fafsim -calibrate -scenarios 100 -seed 1

# End-to-end smoke of the one benchmark that measures this tree (bench/,
# BENCHMARK.json): short traced runs of the worst honest regime — churn
# drives the real daemon over loopback, validates every response and ends
# with the ledger, drain and audit checks — of arrivals_open (the same layers
# on an arrival schedule, 200 decisions), and of figure7 (sim.Run) and
# calibrate (sim.RunMulti), which run the probe path on standing sets churn
# never builds: every workload on the analysis path. Each must exit 0, report
# "correct":true on its result line and print its seed-1 decision
# fingerprint below, bit for bit. preview and preview_batch_audited bypass
# the analysis and stay unpinned: their fingerprints cover 100,000 and
# 153,600 decisions, which a slower host may not reach in these 4 s runs. A
# change that moves decisions on purpose updates BENCH_E2E_FINGERPRINTS and
# says so in CHANGES.md. Numbers from these short runs are not for
# comparison; bench/README.md gives the paired procedure for those.
BENCH_E2E_FINGERPRINTS = churn=46bc22049b29810b arrivals_open=f3108670e253eedc figure7=85609bead474dac1 calibrate=c233bf6b3c45d7cc

bench-e2e:
	@for pin in $(BENCH_E2E_FINGERPRINTS); do \
		w=$${pin%%=*}; fp=$${pin#*=}; \
		out=$$($(GO) run ./bench -workload $$w -seed 1 -seconds 4 -trace 1) || { echo "$$out"; exit 1; }; \
		echo "$$out" | grep -E '^(fingerprint|budget|probe budget)'; \
		echo "$$out" | grep -q "^fingerprint $$w $$fp " || { echo "bench-e2e: the $$w seed-1 fingerprint is not $$fp"; exit 1; }; \
		echo "$$out" | tail -n 1 | grep -q '"correct":true' || { echo "bench-e2e: the $$w run is not correct"; exit 1; }; \
	done; echo '"correct":true'

# Documentation gates: every exported identifier in internal/obs must carry
# a doc comment, OPERATIONS.md's metric catalog must match the names the
# packages actually register, its Flags table must match the flags fafcacd
# registers, README's analyzer table must match the fafvet registry, and
# FUZZ_TARGETS above must name exactly the tree's fuzz targets (all both
# directions), and EXPERIMENTS.md's Figure 7 and 8 tables and charts must be
# what fafsim prints at their documented seeds (≈ 10 s). All are ordinary Go
# tests, named here so CI
# and a developer can run just the docs gate.
docs-check:
	$(GO) test -run TestExportedIdentifiersDocumented ./internal/obs/
	$(GO) test -run TestOperationsCatalogMatchesRegistry .
	$(GO) test -run TestFuzzTargetsListed .
	$(GO) test -run TestReadmeAnalyzerTableMatchesRegistry ./cmd/fafvet/
	$(GO) test -run TestOperationsFlagsMatchDaemon ./cmd/fafcacd/
	$(GO) test -run TestExperimentsFigureTables ./cmd/fafsim/

check: build fmt vet race test docs-check

clean:
	rm -rf bin
