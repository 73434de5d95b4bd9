#!/usr/bin/env bash
# End-to-end smoke scenarios against real processes, behind one runner.
#
#   scripts/smoke.sh <serve|resume|crash|quant|ab|drift|cluster|chaos|all> [scratch-dir]
#
# The runner builds the four binaries once, keeps everything a scenario writes
# under a fresh subdirectory of scratch-dir (the system temp dir when omitted),
# tracks every process it spawns, and on exit stops them and removes that
# subdirectory — never a directory it did not create. What each scenario
# proves is written once, above its function. Tunables (env or make
# variables): QUANT_ADDR AB_ADDR DRIFT_ADDR, CLUSTER_SMOKE_{USERS,SHARDS,
# REPLICAS,DURATION,CONNS,PORT_BASE,GW_PORT,OUT}, CHAOS_SMOKE_{USERS,DURATION,
# CONNS,PORT_BASE,GW_PORT,PROXY_PORT,ADMIN_PORT,OUT}.
set -euo pipefail
cd "$(dirname "$0")/.."

ALL=(serve resume crash quant ab drift cluster chaos)
USAGE="usage: $0 <$(IFS='|'; echo "${ALL[*]}")|all> [scratch-dir]"
NAME="${1:?$USAGE}"
if [[ -n "${2:-}" ]]; then
    mkdir -p "$2"
    WORK="$(mktemp -d "$2/tcss-smoke.XXXXXX")"
else
    WORK="$(mktemp -d)"
fi
BIN="$WORK/bin"
PIDS=()

die() { echo "$NAME-smoke: FAIL — $*" >&2; exit 1; }

# spawn CMD...: start a background process the runner will stop.
spawn() { "$@" & PIDS+=($!); }

stop_all() {
    for pid in ${PIDS[@]+"${PIDS[@]}"}; do kill "$pid" 2>/dev/null || true; done
    for pid in ${PIDS[@]+"${PIDS[@]}"}; do wait "$pid" 2>/dev/null || true; done
    PIDS=()
}

cleanup() {
    stop_all
    # A SIGTERMed gateway stops its own children; sweep what a harder death
    # would have left behind.
    for f in "$WORK"/*/pids/*.pid; do
        [[ -e "$f" ]] && kill -9 "$(cat "$f")" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

# wait_healthy URL WHAT: the one loop that polls /healthz (60 s budget; gives
# up at once when a spawned process has died).
wait_healthy() {
    for _ in $(seq 1 300); do
        curl -fsS "$1/healthz" >/dev/null 2>&1 && return 0
        for pid in "${PIDS[@]}"; do
            kill -0 "$pid" 2>/dev/null || die "$2: a spawned process died before it was healthy"
        done
        sleep 0.2
    done
    die "$2 never became healthy"
}

# counter NAME: the first integer value of "NAME" in the JSON on stdin.
counter() { grep -o "\"$1\": *[0-9]*" | head -1 | grep -o '[0-9]*$' || true; }

# positive VALUE WHAT: fail unless VALUE is an integer above zero.
positive() { [[ -n "$1" && "$1" -gt 0 ]] || die "$2 (got '${1}')"; }

# serve: a node trained on the small preset answers mixed recommend/observe
# load over loopback HTTP; loadgen's exit status fails the run on any
# transport failure, unexpected status or zero successes.
smoke_serve() {
    local addr=127.0.0.1:18092
    spawn "$BIN/tcss" serve -preset gmu-5k -epochs 40 -addr "$addr"
    wait_healthy "http://$addr" "serve node"
    "$BIN/loadgen" -url "http://$addr" -users 220 -pois 200 -times 12 \
        -conns 2 -duration 2s -observe-frac 0.01 -out "$DIR/loadgen.json"
    echo "serve-smoke: PASS — trained node served mixed recommend/observe load"
}

# resume: a run stopped at its halfway checkpoint (a simulated kill) and
# resumed to the full epoch count saves a model byte-identical to a
# straight-through run — the engine restores parameters, Adam moments, RNG
# position and epoch exactly.
smoke_resume() {
    local t=("$BIN/tcss" -preset gmu-5k -rank 4)
    "${t[@]}" -epochs 4 -save "$DIR/straight.json"
    "${t[@]}" -epochs 2 -checkpoint "$DIR/ck.json"
    "${t[@]}" -epochs 4 -resume "$DIR/ck.json" -save "$DIR/resumed.json"
    cmp "$DIR/straight.json" "$DIR/resumed.json"
    echo "resume-smoke: PASS — resumed model byte-identical to straight-through run"
}

# crash: an injected power loss 4096 bytes into the third checkpoint save
# kills the process mid-write with exit 137; resuming from the surviving
# rotation ladder still ends in a model byte-identical to the uninterrupted
# run.
smoke_crash() {
    local t=("$BIN/tcss" -preset gmu-5k -rank 4 -epochs 4) status=0
    "${t[@]}" -save "$DIR/straight.json"
    "${t[@]}" -checkpoint "$DIR/ck.json" -checkpoint-every 1 -checkpoint-keep 2 \
        -fault crash-save=3@4096 || status=$?
    [[ $status -eq 137 ]] || die "want injected-crash exit 137, got $status"
    "${t[@]}" -resume "$DIR/ck.json" -save "$DIR/resumed.json"
    cmp "$DIR/straight.json" "$DIR/resumed.json"
    echo "crash-smoke: PASS — resumed-after-crash model byte-identical to straight-through run"
}

# quant: the whole compact pipeline — train int8-quantized, save in the v5
# binary slab format, serve it, drive a short burst from four connections
# (concurrent misses take the coalesced batch path).
# -model reads the format from the file, so the server's own "loaded model"
# line must say the v5 file was memory-mapped, not copied.
smoke_quant() {
    local addr="${QUANT_ADDR:-127.0.0.1:18093}"
    "$BIN/tcss" -preset gmu-5k -rank 12 -epochs 40 -storage int8 -save-binary "$DIR/model.bin"
    spawn "$BIN/tcss" serve -preset gmu-5k -model "$DIR/model.bin" -addr "$addr" >"$DIR/serve.log"
    wait_healthy "http://$addr" "int8 node"
    "$BIN/loadgen" -url "http://$addr" -users 220 -times 12 \
        -conns 4 -duration 2s -observe-frac 0 -out "$DIR/loadgen.json"
    grep 'loaded model .*format v5.*memory-mapped: true' "$DIR/serve.log" \
        || { cat "$DIR/serve.log"; die "server did not report a memory-mapped v5 load"; }
    echo "quant-smoke: PASS — int8 model saved (v5), mmap-served under concurrent load"
}

# ab: TCSS plus an STRNN trained in the same process, behind a 50/50
# deterministic A/B user split with STRNN shadow scoring, under a mixed
# recommend + next-POI workload. loadgen exits nonzero unless both models
# served traffic and off-path shadow scorings completed with a sane
# agreement fraction.
smoke_ab() {
    local addr="${AB_ADDR:-127.0.0.1:18094}"
    spawn "$BIN/tcss" serve -preset gmu-5k -epochs 40 -rank 8 \
        -seq STRNN -seq-epochs 3 -seq-rank 8 -seq-save "$DIR/strnn.state" \
        -ab STRNN=0.5 -shadow STRNN -addr "$addr"
    wait_healthy "http://$addr" "A/B node"
    "$BIN/loadgen" -url "http://$addr" -users 220 -pois 200 -times 12 \
        -conns 4 -duration 3s -observe-frac 0 -next-frac 0.35 \
        -require-models tcss,STRNN -require-shadow -out "$DIR/loadgen.json"
    [[ -s "$DIR/strnn.state" ]] || die "no saved STRNN state"
    echo "ab-smoke: PASS — A/B split + shadow served a mixed recommend/next workload"
}

# drift: a growth-enabled node is fed a generated 2-week drift stream (new
# users, POI openings, seasonally shifted check-ins) through /v1/observe by
# `tcss replay -url`, which scores each week's novel check-ins before folding
# them in and exits nonzero if an arrival is rejected; the /metrics growth
# counters must show the model grew past its trained dimensions.
smoke_drift() {
    local addr="${DRIFT_ADDR:-127.0.0.1:18095}" metrics
    spawn "$BIN/tcss" serve -preset gmu-5k -epochs 40 -grow -half-life 64 -addr "$addr"
    wait_healthy "http://$addr" "growth node"
    "$BIN/tcss" replay -preset gmu-5k -weeks 2 -url "http://$addr" -out "$DIR/replay.json"
    metrics="$(curl -fsS "http://$addr/metrics")"
    positive "$(counter observe_grown_users <<<"$metrics")" "no user was grown"
    positive "$(counter observe_grown_pois <<<"$metrics")" "no POI was grown"
    echo "drift-smoke: PASS — 2-week drift stream grew the model through /v1/observe"
}

# verified_load URL USERS CONNS DURATION OUT: loadgen -verify in the
# background (pid in LG_PID). Every recommend response is recomputed from a
# local copy of the cluster's synthetic model and compared exactly, so one
# wrong byte — wrong shard, stale replica, torn shipment — fails the run;
# -observe-frac 0 keeps the served model at the generation the copy has.
verified_load() {
    "$BIN/loadgen" -url "$1" -users "$2" -pois 1000 -times 12 -synth-rank 8 -seed 7 \
        -verify -observe-frac 0 -conns "$3" -duration "$4" -out "$5" &
    LG_PID=$!
}

# cluster: a spawned 4-shard × 2-replica cluster on a 1M-user synthetic model
# behind the gateway carries verified load while one primary is killed -9
# mid-burst: zero mismatches, at least one recorded failover, and a health
# rollup that is degraded, not down. Scale down locally with e.g.
# CLUSTER_SMOKE_USERS=20000.
smoke_cluster() {
    local users="${CLUSTER_SMOKE_USERS:-1000000}" shards="${CLUSTER_SMOKE_SHARDS:-4}"
    local replicas="${CLUSTER_SMOKE_REPLICAS:-2}" gw="http://127.0.0.1:${CLUSTER_SMOKE_GW_PORT:-18090}"
    local victim failovers code
    echo "cluster-smoke: spawning $shards shards x $replicas replicas (synthetic, $users users)..."
    spawn "$BIN/tcssgw" -listen "${gw#http://}" \
        -spawn "$shards" -replicas "$replicas" -port-base "${CLUSTER_SMOKE_PORT_BASE:-19100}" \
        -tcss "$BIN/tcss" -pid-dir "$DIR/pids" \
        -seed 7 -synth-users "$users" -synth-pois 1000 -synth-times 12 -synth-rank 8
    wait_healthy "$gw" "gateway"
    verified_load "$gw" "$users" "${CLUSTER_SMOKE_CONNS:-8}" "${CLUSTER_SMOKE_DURATION:-8s}" \
        "${CLUSTER_SMOKE_OUT:-$DIR/loadgen.json}"

    # The replicas hold the same generation via snapshot shipping, so reads
    # must fail over without a single response changing.
    sleep 2
    victim="$(cat "$DIR/pids/shard-1.pid")"
    echo "cluster-smoke: kill -9 primary shard-1 (pid $victim)"
    kill -9 "$victim"
    wait "$LG_PID" || die "loadgen failed (mismatched or failed responses, see above)"

    failovers="$(curl -fsS "$gw/metrics" | counter failovers)"
    positive "$failovers" "primary was killed but the gateway reports no failovers"
    code="$(curl -s -o /dev/null -w '%{http_code}' "$gw/healthz")"
    [[ "$code" == 200 ]] || die "healthz returned $code after single-primary loss (replicas should keep the shard serving)"
    echo "cluster-smoke: PASS — bit-identical responses across $shards shards, $failovers failovers after primary kill"
}

# chaos: a real 2-shard × 1-replica cluster with a chaosproxy on exactly one
# link — gateway → shard-0 primary; replication bypasses it, so the fault is
# one-way — carries verified load while the proxy walks 503 burst (failover
# on status) → indefinite hang (failover on the per-try deadline) → heal.
# Every 200 under chaos is bit-identical to the right answer, faults and
# failovers actually fired, and the healed cluster reports healthy.
smoke_chaos() {
    local users="${CHAOS_SMOKE_USERS:-20000}" base="${CHAOS_SMOKE_PORT_BASE:-19210}"
    local gw="http://127.0.0.1:${CHAOS_SMOKE_GW_PORT:-18096}"
    local proxy="http://127.0.0.1:${CHAOS_SMOKE_PROXY_PORT:-19301}"
    local admin="http://127.0.0.1:${CHAOS_SMOKE_ADMIN_PORT:-19302}"
    local p0="http://127.0.0.1:$base" p1="http://127.0.0.1:$((base + 1))"
    local r0="http://127.0.0.1:$((base + 2))" r1="http://127.0.0.1:$((base + 3))"
    local injected failovers code
    node() { # URL SHARD EXTRA...
        spawn "$BIN/tcss" serve -addr "${1#http://}" -shard-name "$2" -cluster-shards shard-0,shard-1 \
            -seed 7 -synth-users "$users" -synth-pois 1000 -synth-times 12 -synth-rank 8 "${@:3}"
    }
    echo "chaos-smoke: spawning 2 shards x 1 replica (synthetic, $users users)..."
    node "$p0" shard-0 -first-gen 1
    node "$p1" shard-1 -first-gen 1
    wait_healthy "$p0" "primary shard-0"
    wait_healthy "$p1" "primary shard-1"
    node "$r0" shard-0 -replica-of "$p0" -sync-wait 60s -max-gen-lag 64
    node "$r1" shard-1 -replica-of "$p1" -sync-wait 60s -max-gen-lag 64
    wait_healthy "$r0" "replica shard-0"
    wait_healthy "$r1" "replica shard-1"
    spawn "$BIN/chaosproxy" -listen "${proxy#http://}" -admin "${admin#http://}" -target "$p0"
    # A 2 s budget per read, 500 ms per attempt and a generous retry bucket:
    # the schedule must be survived by failover, not refused by an empty bucket.
    spawn "$BIN/tcssgw" -listen "${gw#http://}" \
        -shards "shard-0=$proxy,$r0;shard-1=$p1,$r1" \
        -read-budget 2s -per-try-timeout 500ms -retry-rate 50 -retry-burst 100
    wait_healthy "$gw" "gateway"
    verified_load "$gw" "$users" "${CHAOS_SMOKE_CONNS:-8}" "${CHAOS_SMOKE_DURATION:-8s}" \
        "${CHAOS_SMOKE_OUT:-$DIR/loadgen.json}"

    sleep 1.5
    echo "chaos-smoke: inject error burst"
    curl -fsS -X POST "$admin/fault?mode=error" >/dev/null
    sleep 1.5
    echo "chaos-smoke: inject hang"
    curl -fsS -X POST "$admin/fault?mode=hang" >/dev/null
    sleep 2
    echo "chaos-smoke: heal"
    curl -fsS -X POST "$admin/fault?mode=pass" >/dev/null
    wait "$LG_PID" || die "loadgen failed under chaos (mismatched or failed responses, see above)"

    injected="$(curl -fsS "$admin/fault" | counter injected)"
    positive "$injected" "the proxy injected no faults (schedule never fired)"
    failovers="$(curl -fsS "$gw/metrics" | counter failovers)"
    positive "$failovers" "faults fired but the gateway reports no failovers"
    code="$(curl -s -o /dev/null -w '%{http_code}' "$gw/healthz")"
    [[ "$code" == 200 ]] || die "healthz returned $code after heal"
    echo "chaos-smoke: PASS — $injected faults injected, $failovers failovers, zero mismatches, healthy after heal"
}

[[ "$NAME" == all ]] && RUN=("${ALL[@]}") || RUN=("$NAME")
for NAME in "${RUN[@]}"; do
    declare -F "smoke_$NAME" >/dev/null || { echo "$USAGE" >&2; exit 2; }
done
echo "smoke: building binaries..."
"${GO:-go}" build -o "$BIN/" ./cmd/tcss ./cmd/tcssgw ./cmd/loadgen ./cmd/chaosproxy
for NAME in "${RUN[@]}"; do
    DIR="$WORK/$NAME"
    mkdir -p "$DIR"
    "smoke_$NAME"
    stop_all
done
