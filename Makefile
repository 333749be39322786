# Developer entry points. Everything here is plain go tool invocations;
# CI (.github/workflows/ci.yml) runs the same commands.

GO ?= go

.PHONY: build vet test perfbench-test short race golden bench bench-gate bench-baseline parbench audit faults fuzz resume-smoke serve-smoke netchaos-smoke sweep-smoke lint ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test -timeout 30m ./...

# The benchmark module (perfbench/, its own go.mod) is skipped by the
# root ./... patterns, yet it drives the exported server and client API:
# vet and test it on its own (~25 s).
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test .

# Fast subset: slow figure-shape tests skip themselves under -short.
short:
	$(GO) test -short -timeout 10m ./...

# Race coverage of the parallel harness. -short keeps the simulation-heavy
# shape tests out; the concurrency tests never skip.
race:
	$(GO) test -race -short -timeout 30m ./internal/experiments ./internal/sim ./internal/gc
	$(GO) test -race -timeout 30m -run 'Deterministic|Session|Parallel|Concurrent|KindTable' .

# Regenerate render golden files after an intentional format change.
golden:
	$(GO) test ./internal/experiments -run Golden -update

bench:
	$(GO) test -bench=. -benchmem -benchtime=1x

# Benchmark-regression gate: per-subsystem suite plus end-to-end RunAll,
# compared against the committed bench_baseline.txt. Fails on >10%
# geomean ns/op regression; writes BENCH.json. BENCH_SET=short for the
# CI smoke set (microbenchmarks only, no RunAll).
bench-gate:
	./scripts/bench_gate.sh

# Refresh bench_baseline.txt after an intentional perf change (commit it).
bench-baseline:
	BENCH_UPDATE=1 ./scripts/bench_gate.sh

# Invariant audit: vet plus the cross-component conservation and
# utilization-range checks (byte conservation between requesters and DRAM
# banks, utilization gauges in [0,1], unit-busy double accounting), plus a
# short fuzz pass over the public Config boundary.
audit:
	$(GO) vet ./...
	$(GO) test -timeout 10m -run 'Invariant|Conservation|Utilization|BusyNeverExceeds|PerUnitMetrics|RequesterBytes|ConfigValidate' ./internal/exec ./internal/charon ./internal/sim .
	$(GO) test -run FuzzConfigValidate -fuzz=FuzzConfigValidate -fuzztime=$(FUZZTIME) .

# Fuzz the public Config boundary (Validate must never panic, accepted
# configs must run cleanly) and the calendar ring (ring/spill accounting
# must match the retired map-scan reference on arbitrary reserve/query
# interleavings). FUZZTIME=10m fuzz for a longer soak.
FUZZTIME ?= 15s
fuzz:
	$(GO) test -run FuzzConfigValidate -fuzz=FuzzConfigValidate -fuzztime=$(FUZZTIME) .
	$(GO) test -run FuzzCalendarRingEquivalence -fuzz=FuzzCalendarRingEquivalence -fuzztime=$(FUZZTIME) ./internal/sim

# Crash-safety smoke: interrupt a checkpointed sweep with SIGINT, resume
# it, and diff against an uninterrupted golden run (see the script).
resume-smoke:
	./scripts/resume_smoke.sh

# Serving smoke: boot charond, run a job over HTTP, assert the report is
# byte-identical to the CLI's, assert resubmission is a cache hit, then
# SIGTERM and assert a clean drain (see the script). Needs curl + jq.
serve-smoke:
	./scripts/serve_smoke.sh

# Network-chaos smoke: put the seeded netfault proxy between charonctl
# and charond, drive submit → poll → result through injected resets,
# blackholes, latency, truncations and slowloris reads, and assert the
# report stays byte-identical to the CLI while the proxy's fault log and
# the client's retry counters reconcile (see the script). Needs jq.
netchaos-smoke:
	./scripts/netchaos_smoke.sh

# Sweep smoke: submit a parameter grid as one batch, kill -9 charond
# mid-sweep, restart, and assert the journaled manifest recovers the
# sweep under its original child ids, the combined report stays
# byte-identical to the concatenated CLI runs, and a duplicate sweep
# deduplicates without re-execution (see the script). Needs curl + jq.
sweep-smoke:
	./scripts/sweep_smoke.sh

# Serial-vs-parallel wall-time comparison (also verifies byte-identical
# output across parallelism settings).
parbench:
	$(GO) test -bench=BenchmarkSuiteSerialVsParallel -benchtime=1x -timeout 60m

# Fault-injection smoke: race-checked fault/degradation tests across every
# layer, then a real fault-sweep run that exports its metrics snapshot
# (CI uploads fault-metrics.json as a build artifact).
faults:
	$(GO) test -race -timeout 30m -run 'Fault|Failover|AllUnitsFailed|Degrad|Retry|BankRemap|Watchdog|Deadline' \
		./internal/fault ./internal/memsys ./internal/dram ./internal/hmc ./internal/charon ./internal/exec ./internal/experiments
	$(GO) run ./cmd/charonsim -exp faults -workloads BS -fault-seed 42 -fault-rate 0.01 -metrics fault-metrics.json

# Static analysis beyond vet. staticcheck is optional locally (the target
# skips with a notice when the binary is absent); CI installs it.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)" ; \
	fi

ci: lint build test perfbench-test race audit faults resume-smoke serve-smoke netchaos-smoke sweep-smoke
