#!/bin/sh
# cluster-smoke: boot real multi-process clusters on loopback and assert
# the netcluster acceptance criteria end to end.
#
#   Part 1 (training): a 3-process knord run must produce the same
#   result checksum (centroid bits + assignments + SSE bits + iteration
#   count) and the same `simulated time:` line as the single-process
#   run of the same config, at both -precision 64 and 32. -threads 1
#   everywhere: the intra-machine thread pool claims tasks off a shared
#   cursor, so only one thread per machine pins the floating-point fold
#   order.
#
#   Part 2 (serving): knorserve as a coordinator plus two worker
#   processes (-machines 3 -replicas 2), train + publish a model,
#   assert /v1/assign answers byte-identical to a single-node server,
#   then kill -9 one worker and assert the answers do not change and
#   the transport telemetry counted real traffic.
#
# Everything runs on 127.0.0.1 with fixed ports; total budget well
# under a minute. Exits nonzero with a labelled message on the first
# failed assertion.
set -eu

GO=${GO:-go}
TMP=$(mktemp -d)
PIDS=""
cleanup() {
    for p in $PIDS; do kill "$p" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

fail() {
    echo "cluster-smoke: $*" >&2
    exit 1
}

$GO build -o "$TMP/knord" ./cmd/knord
$GO build -o "$TMP/knorserve" ./cmd/knorserve

# ---- Part 1: knord 3-process vs single-process parity ----------------

KNORD_ARGS="-gen-n 3000 -gen-d 8 -k 7 -iters 30 -threads 1 -machines 3"
KNORD_PORT=18431

for P in 64 32; do
    "$TMP/knord" $KNORD_ARGS -precision "$P" >"$TMP/knord-solo.$P.log" || \
        fail "knord solo p=$P failed"
    solo=$(awk '/^checksum:/{print $2}' "$TMP/knord-solo.$P.log")
    [ -n "$solo" ] || fail "knord solo p=$P printed no checksum"
    solo_sim=$(grep '^simulated time:' "$TMP/knord-solo.$P.log")

    "$TMP/knord" $KNORD_ARGS -precision "$P" -join 127.0.0.1:$KNORD_PORT \
        >"$TMP/knord-w1.$P.log" 2>&1 &
    w1=$!
    "$TMP/knord" $KNORD_ARGS -precision "$P" -join 127.0.0.1:$KNORD_PORT \
        >"$TMP/knord-w2.$P.log" 2>&1 &
    w2=$!
    PIDS="$PIDS $w1 $w2"
    "$TMP/knord" $KNORD_ARGS -precision "$P" -listen 127.0.0.1:$KNORD_PORT \
        >"$TMP/knord-coord.$P.log" || fail "knord coordinator p=$P failed"
    wait "$w1" || fail "knord worker 1 p=$P failed: $(cat "$TMP/knord-w1.$P.log")"
    wait "$w2" || fail "knord worker 2 p=$P failed: $(cat "$TMP/knord-w2.$P.log")"
    cluster=$(awk '/^checksum:/{print $2}' "$TMP/knord-coord.$P.log")
    cluster_sim=$(grep '^simulated time:' "$TMP/knord-coord.$P.log")

    [ "$solo" = "$cluster" ] || \
        fail "knord p=$P checksum mismatch: solo=$solo 3-process=$cluster"
    [ "$solo_sim" = "$cluster_sim" ] || \
        fail "knord p=$P simulated time mismatch: solo '$solo_sim', 3-process '$cluster_sim'"
    echo "cluster-smoke: knord p=$P 3-process checksum and $solo_sim == solo ($solo)"
done

# ---- Part 2: knorserve cluster failover + single-node parity ---------

HTTP=127.0.0.1:18433
ORACLE=127.0.0.1:18434
CPORT=18435

MODEL='{"name":"smoke","k":6,"iters":20,"spec":{"n":600,"d":4,"clusters":6,"spread":0.05,"seed":3}}'
ROWS='{"model":"smoke","rows":[[0.1,0.2,0.3,0.4],[0.9,0.8,0.7,0.6],[0.5,0.5,0.5,0.5]]}'

wait_healthy() {
    for _ in $(seq 1 50); do
        curl -fsS "http://$1/healthz" >/dev/null 2>&1 && return 0
        sleep 0.2
    done
    fail "$2 never became healthy"
}

"$TMP/knorserve" -addr "$ORACLE" -machines 1 -threads 1 \
    >"$TMP/oracle.log" 2>&1 &
PIDS="$PIDS $!"

"$TMP/knorserve" -addr "$HTTP" -listen 127.0.0.1:$CPORT -machines 3 -replicas 2 \
    -threads 1 -trace-sample 1 >"$TMP/coord.log" 2>&1 &
PIDS="$PIDS $!"
"$TMP/knorserve" -join 127.0.0.1:$CPORT -threads 1 >"$TMP/worker1.log" 2>&1 &
W1=$!
"$TMP/knorserve" -join 127.0.0.1:$CPORT -threads 1 >"$TMP/worker2.log" 2>&1 &
PIDS="$PIDS $W1 $!"

wait_healthy "$ORACLE" "single-node oracle"
wait_healthy "$HTTP" "cluster coordinator"

curl -fsS -X POST "http://$ORACLE/v1/models" -d "$MODEL" >/dev/null || \
    fail "oracle model train failed"
curl -fsS -X POST "http://$HTTP/v1/models" -d "$MODEL" >/dev/null || \
    fail "cluster model train failed"

oracle_ans=$(curl -fsS -X POST "http://$ORACLE/v1/assign" -d "$ROWS") || \
    fail "oracle assign failed"
cluster_ans=$(curl -fsS -X POST "http://$HTTP/v1/assign" -d "$ROWS") || \
    fail "cluster assign failed"
[ "$oracle_ans" = "$cluster_ans" ] || \
    fail "cluster assign differs from single-node: $cluster_ans vs $oracle_ans"
echo "cluster-smoke: knorserve 3-process /v1/assign == single-node"

curl -fsS "http://$HTTP/metrics" >"$TMP/metrics.txt" || fail "metrics scrape failed"
grep -q '^knor_net_bytes_total{dir="tx"} [1-9]' "$TMP/metrics.txt" || \
    fail "no transmitted transport bytes counted"
grep -q '^knor_net_frames_total{type="shard"} [1-9]' "$TMP/metrics.txt" || \
    fail "no shard push frames counted"
grep -q '^knor_net_frames_total{type="assign_req"} [1-9]' "$TMP/metrics.txt" || \
    fail "no assign RPC frames counted"

# Cluster-wide observability: the federated scrape must carry the worker
# processes' own series under rank labels (pulled over FrameMetrics, not
# recorded on the coordinator), and a fully-sampled /assign must show
# worker-local spans stitched into the coordinator's trace.
curl -fsS "http://$HTTP/metrics/cluster" >"$TMP/fedmetrics.txt" || \
    fail "federated metrics scrape failed"
grep -q 'knor_peer_shards{rank="2"} [1-9]' "$TMP/fedmetrics.txt" || \
    fail "federated scrape missing worker rank 2 shard gauge"
grep -q 'knor_net_bytes_total{rank="2",' "$TMP/fedmetrics.txt" || \
    fail "federated scrape missing worker rank 2 transport bytes"
grep -q 'knor_federation_stale{rank="1"} 0' "$TMP/fedmetrics.txt" || \
    fail "healthy worker rank 1 not marked fresh on federated scrape"
curl -fsS "http://$HTTP/debug/traces" >"$TMP/traces.json" || \
    fail "trace dump scrape failed"
grep -q 'rank[12]/shard_gemm' "$TMP/traces.json" || \
    fail "no worker shard_gemm span stitched into a coordinator trace"
curl -fsS "http://$HTTP/debug/events" >"$TMP/events.json" || \
    fail "event journal scrape failed"
grep -q '"msg":"peer joined"' "$TMP/events.json" || \
    fail "event journal missing the worker join events"
echo "cluster-smoke: federated metrics carry worker series, traces stitch across processes"

kill -9 "$W1" 2>/dev/null || fail "worker 1 already dead before the kill"
# The coordinator notices the dropped connection (or the missed pulses)
# and marks the machine dead; replicas=2 means every shard group keeps
# a live copy, so answers never change.
deadline=$(( $(date +%s) + 15 ))
until curl -fsS "http://$HTTP/v1/machines" 2>/dev/null | grep -q '"live":false'; do
    [ "$(date +%s)" -lt "$deadline" ] || fail "killed worker never marked dead"
    sleep 0.2
done

# The killed worker's rank must degrade to a stale marker on the
# federated scrape (ranks follow join-arrival order, so W1 is rank 1 or
# 2), and the scrape itself must keep answering promptly.
curl -fsS "http://$HTTP/metrics/cluster" >"$TMP/fedmetrics2.txt" || \
    fail "federated metrics scrape failed after worker kill"
grep -q 'knor_federation_stale{rank="[12]"} 1' "$TMP/fedmetrics2.txt" || \
    fail "killed worker not marked stale on federated scrape"
echo "cluster-smoke: dead worker degraded to knor_federation_stale on /metrics/cluster"

killed_ans=$(curl -fsS -X POST "http://$HTTP/v1/assign" -d "$ROWS") || \
    fail "assign failed after worker kill"
[ "$killed_ans" = "$oracle_ans" ] || \
    fail "assign changed after worker kill: $killed_ans vs $oracle_ans"
# Healing may already have re-spread the dead worker's replicas from
# the canonical copies ("ready"), or still be mid-walk ("degraded");
# either way the endpoint must answer 200.
ready=$(curl -fsS "http://$HTTP/readyz") || fail "readyz not 200 after kill"
echo "$ready" | grep -q '"ready"\|"degraded"' || fail "unexpected readyz after kill: $ready"
echo "cluster-smoke: worker killed (SIGKILL), failover answers bit-identical"

echo "cluster-smoke: ok (training parity at both precisions, serving parity through a real process kill)"
