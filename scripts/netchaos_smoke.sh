#!/usr/bin/env bash
# netchaos_smoke.sh — network-edge resilience check for charonctl and the
# netfault proxy, usable locally and as the CI netchaos-smoke job:
#
#   1. boot charond, then boot the deterministic netfault proxy
#      (charonctl proxy) in front of it with a seeded fault pattern —
#      connection resets, blackholes, latency, truncated bodies,
#      slowloris reads,
#   2. drive a full submit → poll → result cycle with charonctl THROUGH
#      the faulty proxy (fresh connection per request, so every request
#      redraws the proxy's per-connection fault plan) and require it to
#      succeed end to end,
#   3. assert the report fetched across the faulty network is
#      byte-identical to a direct charonsim CLI run — resilience must
#      never change bytes,
#   4. reconcile the ledgers: the proxy must have actually injected
#      faults (non-empty fault log), and for every hard fault class seen
#      (reset/blackhole/truncate) the client's retry counters must show
#      the recovery work that absorbed it,
#   5. SIGTERM proxy and server and require clean exits.
#
# Any end-to-end failure, a byte of report drift, or a ledger that does
# not reconcile fails the script. On failure the proxy fault log, the
# client metrics snapshot, and the server journal are left in
# $CHAOS_ARTIFACT_DIR (when set) for post-mortem.
set -u -o pipefail

EXP=${EXP:-fig2}
WORKLOADS=${WORKLOADS:-BS}
NET_RATE=${NET_RATE:-0.25}
NET_SEED=${NET_SEED:-7}
GO=${GO:-go}
WORK=$(mktemp -d)
CHAROND_PID=""
PROXY_PID=""

preserve_artifacts() {
    if [ -n "${CHAOS_ARTIFACT_DIR:-}" ]; then
        mkdir -p "$CHAOS_ARTIFACT_DIR"
        cp "$WORK/faults.log" "$CHAOS_ARTIFACT_DIR/" 2>/dev/null
        cp "$WORK/client_metrics.json" "$CHAOS_ARTIFACT_DIR/" 2>/dev/null
        cp "$WORK"/charond*.err "$WORK"/proxy*.err "$CHAOS_ARTIFACT_DIR/" 2>/dev/null
        [ -d "$WORK/cache/journal" ] && cp -r "$WORK/cache/journal" "$CHAOS_ARTIFACT_DIR/" 2>/dev/null
    fi
}
fail() {
    echo "FAIL: $*"
    preserve_artifacts
    exit 1
}
cleanup() {
    [ -n "$PROXY_PID" ] && kill -9 "$PROXY_PID" 2>/dev/null
    [ -n "$CHAROND_PID" ] && kill -9 "$CHAROND_PID" 2>/dev/null
    rm -rf "$WORK"
}
trap cleanup EXIT

counter() { # counter <metrics.json> <name>; prints the integer value (0 if absent)
    local v
    v=$(jq -r --arg n "$2" '.counters[$n] // 0' "$1")
    echo "${v%.*}"
}

echo "== building charonsim + charond + charonctl =="
$GO build -o "$WORK/charonsim" ./cmd/charonsim || exit 1
$GO build -o "$WORK/charond" ./cmd/charond || exit 1
$GO build -o "$WORK/charonctl" ./cmd/charonctl || exit 1

echo "== phase 1: boot charond and the netfault proxy =="
"$WORK/charond" -addr 127.0.0.1:0 -workers 1 -queue 8 \
    -cache-dir "$WORK/cache" >"$WORK/charond.out" 2>"$WORK/charond.err" &
CHAROND_PID=$!
BASE=""
for _ in $(seq 1 200); do
    BASE=$(sed -n 's/^charond listening on //p' "$WORK/charond.out" | head -n1)
    [ -n "$BASE" ] && break
    if ! kill -0 "$CHAROND_PID" 2>/dev/null; then
        cat "$WORK/charond.err"
        fail "charond exited before listening"
    fi
    sleep 0.05
done
[ -n "$BASE" ] || fail "charond never announced its address"
TARGET=${BASE#http://}
echo "charond (pid $CHAROND_PID) at $BASE"

"$WORK/charonctl" proxy -listen 127.0.0.1:0 -target "$TARGET" \
    -net-rate "$NET_RATE" -net-seed "$NET_SEED" -fault-log "$WORK/faults.log" \
    >"$WORK/proxy.out" 2>"$WORK/proxy.err" &
PROXY_PID=$!
PROXY=""
for _ in $(seq 1 200); do
    PROXY=$(sed -n 's/^netfault proxy listening on \([^ ]*\) -> .*/\1/p' "$WORK/proxy.out" | head -n1)
    [ -n "$PROXY" ] && break
    if ! kill -0 "$PROXY_PID" 2>/dev/null; then
        cat "$WORK/proxy.err"
        fail "netfault proxy exited before listening"
    fi
    sleep 0.05
done
[ -n "$PROXY" ] || fail "netfault proxy never announced its address"
echo "netfault proxy (pid $PROXY_PID) at $PROXY -> $TARGET (rate=$NET_RATE seed=$NET_SEED)"

echo "== phase 2: submit through the faulty network =="
# Fresh connection per request (-no-keepalive) so every request redraws
# the proxy's per-connection fault plan; a generous retry budget with a
# short seeded backoff and hedged polling absorbs the injected faults.
if ! "$WORK/charonctl" -server "http://$PROXY" -no-keepalive \
    -timeout 5m -retries 10 -backoff 50ms -hedge 300ms -seed "$NET_SEED" \
    -client-metrics "$WORK/client_metrics.json" \
    submit -experiment "$EXP" -workloads "$WORKLOADS" -wait \
    >"$WORK/served.out" 2>"$WORK/ctl.err"; then
    cat "$WORK/ctl.err"
    fail "charonctl submit -wait failed through the faulty proxy"
fi
[ -s "$WORK/served.out" ] || fail "charonctl printed an empty report"
echo "job completed through the faulty network"

echo "== phase 3: byte-identity against the CLI =="
if ! "$WORK/charonsim" -exp "$EXP" -workloads "$WORKLOADS" >"$WORK/cli.out" 2>"$WORK/cli.err"; then
    cat "$WORK/cli.err"
    fail "CLI run failed"
fi
grep -v '^([0-9]* experiment(s) in ' "$WORK/cli.out" >"$WORK/cli.stripped"
if ! diff "$WORK/served.out" "$WORK/cli.stripped"; then
    fail "report fetched across the faulty network diverged from the CLI output"
fi
echo "served report is byte-identical to the CLI"

echo "== phase 4: reconcile the fault and retry ledgers =="
[ -s "$WORK/faults.log" ] || fail "proxy injected no faults — the run proved nothing (raise NET_RATE?)"
INJECTED=$(wc -l <"$WORK/faults.log")
HARD=$(grep -cE 'class=(blackhole|reset|truncate)' "$WORK/faults.log")
[ -s "$WORK/client_metrics.json" ] || fail "charonctl wrote no client metrics snapshot"
REQS=$(counter "$WORK/client_metrics.json" "client/requests")
RETRIES=$(counter "$WORK/client_metrics.json" "client/retries")
NETERRS=$(counter "$WORK/client_metrics.json" "client/net_errors")
HEDGES=$(counter "$WORK/client_metrics.json" "client/hedges")
echo "proxy injected $INJECTED fault(s) ($HARD hard); client: $REQS requests, $RETRIES retries, $NETERRS transport errors, $HEDGES hedges"
[ "$REQS" -ge 1 ] || fail "client metrics show no requests"
if [ "$HARD" -ge 1 ] && [ "$((RETRIES + NETERRS + HEDGES))" -eq 0 ]; then
    fail "proxy injected $HARD hard fault(s) but the client ledger shows no recovery work"
fi

echo "== phase 5: clean shutdown =="
kill -TERM "$PROXY_PID"
wait "$PROXY_PID"
CODE=$?
PROXY_PID=""
if [ "$CODE" -ne 0 ]; then
    cat "$WORK/proxy.err"
    fail "proxy SIGTERM exited $CODE, want 0"
fi
kill -TERM "$CHAROND_PID"
wait "$CHAROND_PID"
CODE=$?
CHAROND_PID=""
if [ "$CODE" -ne 0 ]; then
    cat "$WORK/charond.err"
    fail "charond drain exited $CODE, want 0"
fi
echo "PASS: netchaos smoke complete (faulty network absorbed, byte-identical, ledgers reconcile)"
