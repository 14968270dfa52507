# Sourced by serve_smoke.sh and ingest_smoke.sh: the lifecycle of the
# one daemon each of them boots, and how they talk to it. The sourcing
# script sets GO, smoke (its log prefix, e.g. "serve-smoke"), workdir and
# logfile first, starts the daemon in the background with its output in
# $logfile, records the pid in srv_pid and its address in addr. smoke_dump
# may name further files to print beside the daemon log when the script
# fails.

cleanup() {
    status=$?
    if [ -n "${srv_pid:-}" ] && kill -0 "$srv_pid" 2>/dev/null; then
        kill -TERM "$srv_pid" 2>/dev/null || true
        wait "$srv_pid" 2>/dev/null || true
    fi
    if [ "$status" -ne 0 ]; then
        echo "$smoke: FAILED (daemon log below)" >&2
        cat "$logfile" >&2 2>/dev/null || true
        for f in ${smoke_dump:-}; do
            if [ -f "$f" ]; then cat "$f" >&2; fi
        done
    fi
    rm -rf "$workdir"
    exit "$status"
}
trap cleanup EXIT INT TERM

# wait_published FILE...: block until the daemon has written every
# address file (each an atomic rename), at most 10 s.
wait_published() {
    i=0
    for f in "$@"; do
        while [ ! -f "$f" ]; do
            i=$((i + 1))
            if [ "$i" -gt 100 ]; then
                echo "$smoke: daemon never published $(basename "$f")" >&2
                exit 1
            fi
            if ! kill -0 "$srv_pid" 2>/dev/null; then
                echo "$smoke: daemon exited during startup" >&2
                exit 1
            fi
            sleep 0.1
        done
    done
}

# drain_daemon: graceful drain, SIGTERM must exit 0.
drain_daemon() {
    kill -TERM "$srv_pid"
    if ! wait "$srv_pid"; then
        echo "$smoke: daemon did not exit cleanly on SIGTERM" >&2
        exit 1
    fi
    srv_pid=""
}

# get PATH prints the daemon's answer to a GET, post PATH BODY sends BODY
# as JSON and discards the answer, scrape saves /metrics in $scrape. All
# go through scripts/httpreq, the smokes' one HTTP client, built once
# here, and fail on a transport error or a non-2xx status.
$GO build -o "$workdir/httpreq" ./scripts/httpreq
get() { "$workdir/httpreq" "http://$addr$1"; }
post() { printf '%s' "$2" | "$workdir/httpreq" "http://$addr$1" - >/dev/null; }
scrape=$workdir/metrics
scrape() { get /metrics >"$scrape"; }
