#!/usr/bin/env bash
# Benchmark-regression gate.
#
# Runs the per-subsystem benchmark suite (calendar, DRAM, HMC,
# cache, Charon offload) plus — in the full set — the end-to-end
# BenchmarkRunAll, compares against the committed bench_baseline.txt,
# writes BENCH.json, and fails on >10% geometric-mean ns/op regression.
#
#   ./scripts/bench_gate.sh                 # full gate (includes RunAll)
#   BENCH_SET=short ./scripts/bench_gate.sh # CI smoke: microbenchmarks only
#   BENCH_UPDATE=1 ./scripts/bench_gate.sh  # re-baseline instead of gating
#   BENCH_BASELINE=other.txt ...            # compare against another file
#
# Comparison uses scripts/benchcmp (plain-Go, no module downloads); when
# benchstat is on PATH its richer report is printed too, informationally.
set -euo pipefail
cd "$(dirname "$0")/.."

baseline="${BENCH_BASELINE:-bench_baseline.txt}"
max_regress="${BENCH_MAX_REGRESS:-0.10}"
out="$(mktemp)"
trap 'rm -f "$out"' EXIT

run() { # run <package> <bench regexp> [extra go test flags...]
	pkg="$1"
	pat="$2"
	shift 2
	go test -run '^$' -bench "$pat" -benchmem "$@" "$pkg" | tee -a "$out"
}

echo "== benchmark suite ($([ "${BENCH_SET:-full}" = short ] && echo short || echo full) set) =="
run ./internal/sim '^(BenchmarkCalendarReserve|BenchmarkCalendarBusyWithin)$'
run ./internal/dram '^(BenchmarkDDR4AccessAt|BenchmarkControllerAccess)$'
run ./internal/hmc '^(BenchmarkHostAccess|BenchmarkNearAccess)$'
run ./internal/cache '^BenchmarkCacheAccess$'
run ./internal/charon '^(BenchmarkOffloadCopy|BenchmarkOffloadScanPush)$'
if [ "${BENCH_SET:-full}" != short ]; then
	# End to end: the whole experiment suite on one workload, one
	# iteration (each iteration is a complete sweep, tens of seconds).
	run . '^BenchmarkRunAll$' -benchtime 1x -timeout 60m
fi

if [ "${BENCH_UPDATE:-0}" = 1 ]; then
	cp "$out" "$baseline"
	echo "bench_gate: baseline refreshed -> $baseline"
	exit 0
fi

if [ ! -f "$baseline" ]; then
	echo "bench_gate: no baseline at $baseline — run BENCH_UPDATE=1 $0 first" >&2
	exit 2
fi

if command -v benchstat >/dev/null 2>&1; then
	echo "== benchstat (informational) =="
	benchstat "$baseline" "$out" || true
fi

echo "== regression gate (max +$(awk "BEGIN{print $max_regress*100}")% geomean) =="
go run ./scripts/benchcmp -old "$baseline" -new "$out" \
	-json BENCH.json -max-regress "$max_regress"
echo "bench_gate: record written to BENCH.json"
