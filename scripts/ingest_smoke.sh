#!/bin/sh
# Smoke test for the streaming ingest loop: boot dtringest on random
# ports, emit a synthetic observation stream over UDP and HTTP with the
# ingest example, refit from the tenant's statistics snapshot with
# dtradapt -ingest -once, and round-trip the fitted spec + policy
# through dtrplan. Finishes with a /metrics scrape and a SIGTERM drain.
# Used by `make ingest-smoke`.
set -eu

GO=${GO:-go}
workdir=$(mktemp -d)
bin="$workdir/dtringest"
addrfile="$workdir/addr"
udpaddrfile="$workdir/udpaddr"
logfile="$workdir/daemon.log"
specfile="$workdir/spec.json"
policyfile="$workdir/policy.txt"
decision="$workdir/decision.json"

smoke=ingest-smoke
smoke_dump=$decision
. scripts/smoke_lib.sh

echo "ingest-smoke: building dtringest"
$GO build -o "$bin" ./cmd/dtringest

# A long window so nothing the emitter sends rotates out mid-test.
"$bin" -http 127.0.0.1:0 -udp 127.0.0.1:0 \
    -addr-file "$addrfile" -udp-addr-file "$udpaddrfile" \
    -window 5m -windows 3 >"$logfile" 2>&1 &
srv_pid=$!

wait_published "$addrfile" "$udpaddrfile"
addr=$(cat "$addrfile")
udpaddr=$(cat "$udpaddrfile")
echo "ingest-smoke: daemon on http $addr / udp $udpaddr"

echo "ingest-smoke: emitting over UDP and HTTP"
$GO run ./examples/ingest -http "$addr" -udp "$udpaddr" -tenant acme

echo "ingest-smoke: refit from the snapshot with dtradapt -ingest -once"
$GO run ./cmd/dtradapt -ingest "http://$addr" -tenant acme \
    -queues 40,10 -once -families exponential,gamma \
    -spec-out "$specfile" -policy-out "$policyfile" >"$decision"
grep -q '"reason": "forced"' "$decision"
[ -s "$specfile" ] || { echo "ingest-smoke: no spec emitted" >&2; exit 1; }
policy=$(cat "$policyfile")
[ -n "$policy" ] || { echo "ingest-smoke: no policy emitted" >&2; exit 1; }
echo "ingest-smoke: dtradapt fitted a spec and chose policy $policy"

echo "ingest-smoke: round-trip through dtrplan"
$GO run ./cmd/dtrplan -model "$specfile" metrics -policy "$policy" \
    | tee "$workdir/metrics.log"
grep -q "mean" "$workdir/metrics.log"

scrape
grep -q '^dtr_ingest_events_total' "$scrape" || {
    echo "ingest-smoke: /metrics scrape missing dtr_ingest_events_total" >&2
    exit 1
}
grep -q '^dtr_ingest_snapshots_total' "$scrape" || {
    echo "ingest-smoke: /metrics scrape missing dtr_ingest_snapshots_total" >&2
    exit 1
}

drain_daemon
echo "ingest-smoke: OK"
