#!/bin/sh
# Smoke test for cmd/dtrload: boot dtrserved on a random port, replay an
# optimize+metrics mix at two request rates, and require a clean
# BENCH_serve.json (no transport errors or 5xx). Used by
# `make load-smoke`; set LOAD_SMOKE_OUT to keep the report and
# LOAD_SMOKE_TRACE_OUT to keep the daemon's trace JSONL (which the
# report's exemplar trace IDs join against).
set -eu

GO=${GO:-go}
workdir=$(mktemp -d)
served="$workdir/dtrserved"
load="$workdir/dtrload"
addrfile="$workdir/addr"
logfile="$workdir/daemon.log"
out=${LOAD_SMOKE_OUT:-$workdir/BENCH_serve.json}
trace_out=${LOAD_SMOKE_TRACE_OUT:-}

smoke=load-smoke
. scripts/smoke_lib.sh

echo "load-smoke: building dtrserved and dtrload"
$GO build -o "$served" ./cmd/dtrserved
$GO build -o "$load" ./cmd/dtrload

set -- -addr 127.0.0.1:0 -addr-file "$addrfile"
if [ -n "$trace_out" ]; then
    set -- "$@" -trace-out "$trace_out"
fi
"$served" "$@" >"$logfile" 2>&1 &
srv_pid=$!

wait_published "$addrfile"
addr=$(cat "$addrfile")
echo "load-smoke: daemon on $addr"

# Two verbs at two offered rates. Rates are modest so the smoke stays
# meaningful on a 1-CPU CI runner (see EXPERIMENTS.md).
"$load" -addr "http://$addr" -spec examples/specs/testbed.json \
    -verbs optimize,metrics -rps 2,4 -duration 3s -grid 512 \
    -variants 2 -out "$out"

# The report must carry every (level, verb) cell with quantiles filled
# and no transport failures or 5xx anywhere.
$GO run ./scripts/benchcheck "$out"

drain_daemon
echo "load-smoke: OK"
