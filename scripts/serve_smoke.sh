#!/bin/sh
# Smoke test for cmd/dtrserved: boot the daemon on a random port, drive
# one request per endpoint plus a /metrics scrape, and fail on any
# non-2xx answer. Used by `make serve-smoke`.
set -eu

GO=${GO:-go}
workdir=$(mktemp -d)
bin="$workdir/dtrserved"
addrfile="$workdir/addr"
logfile="$workdir/daemon.log"

smoke=serve-smoke
. scripts/smoke_lib.sh

echo "serve-smoke: building dtrserved"
$GO build -o "$bin" ./cmd/dtrserved

"$bin" -addr 127.0.0.1:0 -addr-file "$addrfile" >"$logfile" 2>&1 &
srv_pid=$!

wait_published "$addrfile"
addr=$(cat "$addrfile")
echo "serve-smoke: daemon on $addr"

# One request per endpoint (the example client exits non-zero on any
# non-2xx, covering optimize/metrics/simulate/bounds/cdf/batch/healthz),
# then a Prometheus scrape.
$GO run ./examples/serve -addr "$addr"

scrape="$workdir/metrics"
scrape_metrics() {
    if command -v curl >/dev/null 2>&1; then
        curl -sf "http://$addr/metrics" >"$scrape"
    else
        $GO run ./scripts/httpreq "http://$addr/metrics" >"$scrape"
    fi
}
scrape_metrics
grep -q '^dtr_serve_requests_total' "$scrape" || {
    echo "serve-smoke: /metrics scrape missing dtr_serve_requests_total" >&2
    exit 1
}
grep -q '^dtr_serve_cache_hits_total' "$scrape" || {
    echo "serve-smoke: /metrics scrape missing dtr_serve_cache_hits_total" >&2
    exit 1
}

# Solver-table tier: optimize → metrics → cdf → bounds on one spec. The
# first request builds privately, the second builds and retains, the
# third and the fourth must find the model's tables — a tier hit each,
# and not one prefix chain built. A five-server bounds request, sent
# twice, then takes an n-server model through the same tier: five chains
# on each of its two sightings, the second retained and accounted.
post() {
    if command -v curl >/dev/null 2>&1; then
        curl -sf -X POST -H 'Content-Type: application/json' -d "$2" "http://$addr$1" >/dev/null
    else
        printf '%s' "$2" | $GO run ./scripts/httpreq "http://$addr$1" - >/dev/null
    fi
}
counter() { awk -v name="$1" '$1 == name { print $2; found = 1 } END { if (!found) print 0 }' "$scrape"; }
spec='{"servers":[{"queue":9,"service":{"type":"exponential","mean":4}},{"queue":5,"service":{"type":"exponential","mean":2}}],"transfer":{"type":"exponential","perTaskMean":1}}'
post /v1/optimize "{\"spec\":$spec,\"grid\":512}"
post /v1/metrics "{\"spec\":$spec,\"grid\":512,\"policy\":\"0>1:2\"}"
scrape_metrics
builds_before=$(counter dtr_solver_builds_total)
hits_before=$(counter dtr_serve_solver_cache_hits_total)
post /v1/cdf "{\"spec\":$spec,\"grid\":512,\"policy\":\"0>1:2\",\"points\":5}"
post /v1/bounds "{\"spec\":$spec,\"grid\":512,\"policy\":\"0>1:2\",\"deadline\":40}"
scrape_metrics
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
scrape_metrics
fleet_builds=$(($(counter dtr_solver_builds_total) - builds_after))
bytes_after=$(counter dtr_serve_solver_cache_bytes)
if [ "$fleet_builds" -ne 10 ] || ! awk -v a="$bytes_after" -v b="$bytes_before" 'BEGIN { exit !(a > b) }'; then
    echo "serve-smoke: two five-server bounds requests built $fleet_builds chains (want 10) and moved the tier's bytes $bytes_before -> $bytes_after" >&2
    exit 1
fi
echo "serve-smoke: solver-table tier hit, $((builds_after + fleet_builds)) prefix chains built in total"

drain_daemon
echo "serve-smoke: OK"
