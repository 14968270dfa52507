#!/bin/sh
# Smoke test for dtrserved cluster mode: boot a 3-replica fleet on
# random ports, prove compute-once routing via counter deltas, kill the
# owner and verify the survivors keep answering, then drain a replica
# and verify its snapshot reloads into a warm cache on restart. Used by
# `make cluster-smoke`.
set -eu

GO=${GO:-go}
workdir=$(mktemp -d)
bin="$workdir/dtrserved"
spec=examples/specs/testbed.json

cleanup() {
    status=$?
    for i in 1 2 3; do
        pid=$(eval "echo \${pid$i:-}")
        if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
            kill -9 "$pid" 2>/dev/null || true
            wait "$pid" 2>/dev/null || true
        fi
    done
    if [ "$status" -ne 0 ]; then
        echo "cluster-smoke: FAILED (replica logs below)" >&2
        for i in 1 2 3; do
            echo "--- replica $i ---" >&2
            cat "$workdir/log$i" >&2 2>/dev/null || true
        done
    fi
    rm -rf "$workdir"
    exit "$status"
}
trap cleanup EXIT INT TERM

echo "cluster-smoke: building dtrserved + http helper"
$GO build -o "$bin" ./cmd/dtrserved
$GO build -o "$workdir/httpreq" ./scripts/httpreq

get() { "$workdir/httpreq" "$1"; }       # url
post() { "$workdir/httpreq" "$1" "$2"; } # url body-file

metric() { # port name -> value (0 when absent)
    get "http://127.0.0.1:$1/metrics" | awk -v m="$2" '$1==m{v=$2} END{print v+0}'
}

wait_ready() { # port
    j=0
    while ! get "http://127.0.0.1:$1/readyz" >/dev/null 2>&1; do
        j=$((j + 1))
        if [ "$j" -gt 100 ]; then
            echo "cluster-smoke: replica on port $1 never became ready" >&2
            exit 1
        fi
        sleep 0.1
    done
}

# Reserve all three ports up front: the -peers list is static, so every
# replica must know the full fleet before any replica boots.
set -- $($GO run ./scripts/freeport 3)
p1=$1 p2=$2 p3=$3
peers="http://127.0.0.1:$p1,http://127.0.0.1:$p2,http://127.0.0.1:$p3"

start_replica() { # idx port
    "$bin" -addr "127.0.0.1:$2" -self "http://127.0.0.1:$2" -peers "$peers" \
        -probe-interval 250ms -cache-snapshot "$workdir/snap$1" \
        >>"$workdir/log$1" 2>&1 &
    eval "pid$1=\$!"
}

start_replica 1 "$p1"
start_replica 2 "$p2"
start_replica 3 "$p3"
wait_ready "$p1"
wait_ready "$p2"
wait_ready "$p3"
echo "cluster-smoke: fleet up on $p1 $p2 $p3"

# --- compute-once: the same request through two different replicas must
# be computed exactly once fleet-wide, with at least one peer forward.
printf '{"spec": %s, "grid": 1024, "objective": "reliability"}' "$(cat "$spec")" >"$workdir/body1.json"
post "http://127.0.0.1:$p1/v1/optimize" "$workdir/body1.json" >"$workdir/resp1a"
post "http://127.0.0.1:$p2/v1/optimize" "$workdir/body1.json" >"$workdir/resp1b"
cmp -s "$workdir/resp1a" "$workdir/resp1b" || {
    echo "cluster-smoke: same request answered differently by two replicas" >&2
    exit 1
}
computes=$(($(metric "$p1" dtr_serve_computes_total) + \
    $(metric "$p2" dtr_serve_computes_total) + \
    $(metric "$p3" dtr_serve_computes_total)))
forwarded=$(($(metric "$p1" dtr_serve_forwarded_total) + \
    $(metric "$p2" dtr_serve_forwarded_total) + \
    $(metric "$p3" dtr_serve_forwarded_total)))
if [ "$computes" -ne 1 ]; then
    echo "cluster-smoke: fleet computed the request $computes times, want exactly 1" >&2
    exit 1
fi
if [ "$forwarded" -lt 1 ]; then
    echo "cluster-smoke: no replica forwarded to the owner (forwarded=$forwarded)" >&2
    exit 1
fi
echo "cluster-smoke: compute-once OK (computes=1 forwarded=$forwarded)"

# --- kill the owner (the replica that computed); survivors must keep
# serving the cached entry immediately and fresh keys after ejection.
owner_idx="" owner_port=""
for i in 1 2 3; do
    port=$(eval "echo \$p$i")
    if [ "$(metric "$port" dtr_serve_computes_total)" -eq 1 ]; then
        owner_idx=$i owner_port=$port
    fi
done
if [ -z "$owner_idx" ]; then
    echo "cluster-smoke: could not identify the owning replica" >&2
    exit 1
fi
# Replica 1 and 2 both served body1 and hold it in cache; keep whichever
# survives as the warm survivor for the drain/restart leg.
if [ "$owner_idx" = 1 ]; then warm_idx=2; else warm_idx=1; fi
warm_port=$(eval "echo \$p$warm_idx")
other_port=""
for i in 1 2 3; do
    port=$(eval "echo \$p$i")
    if [ "$i" != "$owner_idx" ] && [ "$i" != "$warm_idx" ]; then other_port=$port; fi
done

echo "cluster-smoke: killing owner (replica $owner_idx, port $owner_port)"
owner_pid=$(eval "echo \$pid$owner_idx")
kill -9 "$owner_pid" 2>/dev/null || true
wait "$owner_pid" 2>/dev/null || true
eval "pid$owner_idx="

# Cached entry survives the owner: served locally by the warm survivor.
post "http://127.0.0.1:$warm_port/v1/optimize" "$workdir/body1.json" >"$workdir/resp1c"
cmp -s "$workdir/resp1a" "$workdir/resp1c" || {
    echo "cluster-smoke: cached answer changed after owner death" >&2
    exit 1
}

# The prober must eject the dead peer from the live ring.
j=0
while [ "$(metric "$warm_port" dtr_cluster_peers_alive)" != 2 ]; do
    j=$((j + 1))
    if [ "$j" -gt 100 ]; then
        echo "cluster-smoke: dead peer never ejected (peers_alive stuck)" >&2
        exit 1
    fi
    sleep 0.1
done
echo "cluster-smoke: dead peer ejected"

# Fresh keys reroute to the surviving members and still agree.
printf '{"spec": %s, "grid": 1088, "objective": "reliability"}' "$(cat "$spec")" >"$workdir/body2.json"
post "http://127.0.0.1:$warm_port/v1/optimize" "$workdir/body2.json" >"$workdir/resp2a"
post "http://127.0.0.1:$other_port/v1/optimize" "$workdir/body2.json" >"$workdir/resp2b"
cmp -s "$workdir/resp2a" "$workdir/resp2b" || {
    echo "cluster-smoke: survivors disagree on a fresh request" >&2
    exit 1
}
echo "cluster-smoke: successor fallback OK"

# --- drain the warm survivor: SIGTERM must exit 0 and leave a snapshot,
# and a restart must reload it into a warm cache (no recompute).
warm_pid=$(eval "echo \$pid$warm_idx")
kill -TERM "$warm_pid"
if ! wait "$warm_pid"; then
    echo "cluster-smoke: replica $warm_idx did not exit cleanly on SIGTERM" >&2
    exit 1
fi
eval "pid$warm_idx="
if [ ! -s "$workdir/snap$warm_idx" ]; then
    echo "cluster-smoke: drain left no cache snapshot at snap$warm_idx" >&2
    exit 1
fi

start_replica "$warm_idx" "$warm_port"
wait_ready "$warm_port"
if [ "$(metric "$warm_port" dtr_serve_snapshot_loaded_total)" -lt 1 ]; then
    echo "cluster-smoke: restarted replica loaded no snapshot entries" >&2
    exit 1
fi
post "http://127.0.0.1:$warm_port/v1/optimize" "$workdir/body1.json" >"$workdir/resp1d"
cmp -s "$workdir/resp1a" "$workdir/resp1d" || {
    echo "cluster-smoke: warm-restarted answer differs from the original" >&2
    exit 1
}
if [ "$(metric "$warm_port" dtr_serve_computes_total)" -ne 0 ]; then
    echo "cluster-smoke: warm restart recomputed instead of serving the snapshot" >&2
    exit 1
fi
if [ "$(metric "$warm_port" dtr_serve_cache_hits_total)" -lt 1 ]; then
    echo "cluster-smoke: warm restart served body1 without a cache hit" >&2
    exit 1
fi
echo "cluster-smoke: warm restart OK"
echo "cluster-smoke: OK"
