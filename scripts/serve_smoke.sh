#!/bin/sh
# Smoke test for cmd/dtrserved: boot the daemon on a random port, drive
# one request per endpoint plus a /metrics scrape, fail on any non-2xx
# answer, and check the span file -trace-out streamed. Used by
# `make serve-smoke`.
set -eu

GO=${GO:-go}
workdir=$(mktemp -d)
bin="$workdir/dtrserved"
addrfile="$workdir/addr"
logfile="$workdir/daemon.log"
spans="$workdir/spans.jsonl"

smoke=serve-smoke
. scripts/smoke_lib.sh

echo "serve-smoke: building dtrserved"
$GO build -o "$bin" ./cmd/dtrserved

# The collector is off (the smoke allocates little), so a model's first,
# private build is always there for its second sighting to adopt and the
# chain counts below are exact.
GOGC=off "$bin" -addr 127.0.0.1:0 -addr-file "$addrfile" -trace-out "$spans" >"$logfile" 2>&1 &
srv_pid=$!

wait_published "$addrfile"
addr=$(cat "$addrfile")
echo "serve-smoke: daemon on $addr"

# One request per endpoint (the example client exits non-zero on any
# non-2xx, covering optimize/metrics/simulate/bounds/cdf/batch/healthz),
# then a Prometheus scrape.
$GO run ./examples/serve -addr "$addr"

scrape
grep -q '^dtr_serve_requests_total' "$scrape" || {
    echo "serve-smoke: /metrics scrape missing dtr_serve_requests_total" >&2
    exit 1
}
grep -q '^dtr_serve_cache_hits_total' "$scrape" || {
    echo "serve-smoke: /metrics scrape missing dtr_serve_cache_hits_total" >&2
    exit 1
}

# Solver-table tier: optimize → metrics → cdf → bounds on one spec. The
# first request builds privately, the second adopts that build and
# retains it, the third and the fourth must find the model's tables — a
# tier hit each, and not one prefix chain built. A five-server bounds
# request, sent twice, then takes an n-server model through the same
# tier: five chains on its first sighting, none on the second, which
# retains them and is accounted.
counter() { awk -v name="$1" '$1 == name { print $2; found = 1 } END { if (!found) print 0 }' "$scrape"; }
spec='{"servers":[{"queue":9,"service":{"type":"exponential","mean":4}},{"queue":5,"service":{"type":"exponential","mean":2}}],"transfer":{"type":"exponential","perTaskMean":1}}'
post /v1/optimize "{\"spec\":$spec,\"grid\":512}"
post /v1/metrics "{\"spec\":$spec,\"grid\":512,\"policy\":\"0>1:2\"}"
scrape
builds_before=$(counter dtr_solver_builds_total)
hits_before=$(counter dtr_serve_solver_cache_hits_total)
post /v1/cdf "{\"spec\":$spec,\"grid\":512,\"policy\":\"0>1:2\",\"points\":5}"
post /v1/bounds "{\"spec\":$spec,\"grid\":512,\"policy\":\"0>1:2\",\"deadline\":40}"
scrape
builds_after=$(counter dtr_solver_builds_total)
tier_hits=$(($(counter dtr_serve_solver_cache_hits_total) - hits_before))
if [ "$tier_hits" -ne 2 ]; then
    echo "serve-smoke: cdf and bounds on a retained spec hit the solver-table tier $tier_hits times, want 2" >&2
    exit 1
fi
if [ "$builds_before" -lt 1 ] || [ "$builds_after" != "$builds_before" ]; then
    echo "serve-smoke: dtr_solver_builds_total moved $builds_before -> $builds_after on the third and fourth requests" >&2
    exit 1
fi
fleet='{"servers":[{"queue":6,"service":{"type":"exponential","mean":5}},{"queue":5,"service":{"type":"exponential","mean":4}},{"queue":4,"service":{"type":"exponential","mean":3}},{"queue":2,"service":{"type":"exponential","mean":2}},{"queue":1,"service":{"type":"exponential","mean":1}}],"transfer":{"type":"exponential","perTaskMean":1}}'
bytes_before=$(counter dtr_serve_solver_cache_bytes)
post /v1/bounds "{\"spec\":$fleet,\"grid\":512,\"policy\":\"0>4:2,1>4:2\"}"
post /v1/bounds "{\"spec\":$fleet,\"grid\":512,\"policy\":\"0>4:2,1>4:2\",\"deadline\":40}"
scrape
fleet_builds=$(($(counter dtr_solver_builds_total) - builds_after))
bytes_after=$(counter dtr_serve_solver_cache_bytes)
if [ "$fleet_builds" -ne 5 ] || ! awk -v a="$bytes_after" -v b="$bytes_before" 'BEGIN { exit !(a > b) }'; then
    echo "serve-smoke: two five-server bounds requests built $fleet_builds chains (want 5) and moved the tier's bytes $bytes_before -> $bytes_after" >&2
    exit 1
fi
echo "serve-smoke: solver-table tier hit, $((builds_after + fleet_builds)) prefix chains built in total"

# -trace-out: after the drain, one TraceRecord line per planning request
# the daemon answered, each a /v1/ root, /v1/optimize among them.
sent=$(awk '$1 ~ /^dtr_serve_requests_total[{]/ { n += $2 } END { print n + 0 }' "$scrape")
drain_daemon
lines=$(wc -l <"$spans")
traced=$(grep -c '^{"v":1,"traceId":"[0-9a-f]\{32\}","name":"/v1/[a-z]*","start":' "$spans" || true)
if [ "$sent" -lt 1 ] || [ "$lines" -ne "$sent" ] || [ "$traced" -ne "$sent" ] ||
    ! grep -q '"name":"/v1/optimize","start":' "$spans"; then
    echo "serve-smoke: -trace-out holds $lines lines, $traced of them /v1/ roots, for $sent requests" >&2
    exit 1
fi
echo "serve-smoke: -trace-out streamed $sent request traces"
echo "serve-smoke: OK"
