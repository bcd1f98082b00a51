#!/usr/bin/env bash
# cluster-smoke: end-to-end check of cluster mode over TCP against real
# binaries (see DESIGN.md §15).
#
#   1. start laperm_served --cluster 2 on a private TCP port + private
#      shared cache dir; the supervisor forks two worker daemons on
#      derived ports
#   2. wait for readiness via --ping through the balancer
#   3. submit the same simulation directly (laperm_sim --csv), cold
#      through the cluster, and again cached — all three must be
#      byte-identical
#   4. submit four distinct cold runs concurrently: each must match its
#      direct run, and both workers must have executed some of them
#      (the balancer spills off a busy home worker)
#   5. kill -9 every worker; the supervisor respawns them with empty
#      in-memory tiers, so a resubmit must be served from the shared
#      disk tier: --stats must report cache_shared_hits > 0 (and the
#      payload must still byte-match the direct run)
#   6. protocol shutdown; the supervisor and its workers exit cleanly
#
# Step 5 is the tier distinction that only a process restart can
# exercise: a warm worker answers from memory (cache_mem_hits), so the
# shared-tier counter stays zero until a worker that did NOT execute
# the run serves its bytes off disk. All workers are killed — a
# surviving worker would answer from its L1 and mask the disk tier.
#
# Usage: scripts/cluster_smoke.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
SIM="$BUILD/src/laperm_sim"
SERVED="$BUILD/src/laperm_served"
SUBMIT="$BUILD/src/laperm_submit"

for bin in "$SIM" "$SERVED" "$SUBMIT"; do
    if [ ! -x "$bin" ]; then
        echo "cluster_smoke: missing binary '$bin' (build first)" >&2
        exit 1
    fi
done

WORK=$(mktemp -d /tmp/laperm_cluster_smoke.XXXXXX)
export LAPERM_CACHE_DIR="$WORK/cache"
DAEMON_PID=

cleanup() {
    if [ -n "$DAEMON_PID" ] && kill -0 "$DAEMON_PID" 2>/dev/null; then
        kill "$DAEMON_PID" 2>/dev/null || true
        wait "$DAEMON_PID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

# Cluster mode needs an explicit TCP port (workers listen on port+1+i).
# Derive one from the pid and retry a few candidates in case it is
# taken; readiness doubles as the bind check.
EP=
PORT=
for attempt in 0 1 2 3 4; do
    port=$((21000 + ($$ + attempt * 131) % 20000))
    candidate="tcp:127.0.0.1:$port"
    "$SERVED" --listen "$candidate" --cluster 2 --jobs 2 \
        >"$WORK/daemon.log" 2>&1 &
    DAEMON_PID=$!
    ready=0
    for _ in $(seq 1 100); do
        if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
            break # bind failed; try the next port
        fi
        if "$SUBMIT" --connect "$candidate" --ping >/dev/null 2>&1; then
            ready=1
            break
        fi
        sleep 0.1
    done
    if [ "$ready" -eq 1 ]; then
        EP="$candidate"
        PORT=$port
        break
    fi
    kill "$DAEMON_PID" 2>/dev/null || true
    wait "$DAEMON_PID" 2>/dev/null || true
    DAEMON_PID=
done
if [ -z "$EP" ]; then
    echo "cluster_smoke: cluster never became ready" >&2
    cat "$WORK/daemon.log" >&2 || true
    exit 1
fi
"$SUBMIT" --connect "$EP" --ping

# Determinism contract through the balancer: direct, cold-served, and
# cache-served output must be byte-identical.
req=(--workload bfs-cage --scale tiny --seed 1)
"$SIM" "${req[@]}" --csv >"$WORK/direct.csv"
"$SUBMIT" --connect "$EP" "${req[@]}" >"$WORK/cold.csv"
"$SUBMIT" --connect "$EP" "${req[@]}" >"$WORK/cached.csv"
cmp "$WORK/direct.csv" "$WORK/cold.csv"
cmp "$WORK/direct.csv" "$WORK/cached.csv"
echo "cluster_smoke: direct/cold/cached outputs byte-identical"

# Spill across real processes: four distinct cold runs at once. The
# balancer keeps at most ceil((outstanding + 1) / 2) runs per worker,
# so they cannot all queue on one worker. Each runs for hundreds of
# milliseconds at scale small, so they overlap even when process start
# is slow. Every payload must still match its direct run, and each
# worker (on PORT+1 and PORT+2) must have executed part of the batch.
worker_executed() {
    "$SUBMIT" --connect "tcp:127.0.0.1:$((PORT + 1 + $1))" --stats |
        awk '$1 == "executed" {print $2}'
}
before=("$(worker_executed 0)" "$(worker_executed 1)")
spill_pids=()
for seed in 11 12 13 14; do
    "$SUBMIT" --connect "$EP" --workload join-uniform --scale small \
        --seed "$seed" >"$WORK/spill_$seed.csv" &
    spill_pids+=($!)
done
for pid in "${spill_pids[@]}"; do
    wait "$pid"
done
for i in 0 1; do
    after=$(worker_executed "$i")
    if [ "$after" -le "${before[$i]}" ]; then
        echo "cluster_smoke: worker $i executed none of the concurrent" \
            "runs (executed ${before[$i]} -> $after)" >&2
        exit 1
    fi
done
for seed in 11 12 13 14; do
    "$SIM" --workload join-uniform --scale small --seed "$seed" --csv \
        >"$WORK/spill_direct_$seed.csv"
    cmp "$WORK/spill_direct_$seed.csv" "$WORK/spill_$seed.csv"
done
echo "cluster_smoke: concurrent cold runs byte-identical on both workers"

# Kill every worker (the supervisor logs "worker <i> pid <pid>" for
# each spawn); respawned workers come back with empty memory tiers.
worker_pids=$(awk '/^laperm_served worker [0-9]+ pid /{print $5}' \
    "$WORK/daemon.log")
[ "$(wc -w <<<"$worker_pids")" -eq 2 ]
for pid in $worker_pids; do
    kill -9 "$pid"
done

# Await respawn: two more spawn lines, then the balancer answers again.
respawned=0
for _ in $(seq 1 100); do
    n=$(grep -c '^laperm_served worker [0-9]* pid ' "$WORK/daemon.log")
    if [ "$n" -ge 4 ] &&
        "$SUBMIT" --connect "$EP" --ping >/dev/null 2>&1; then
        respawned=1
        break
    fi
    sleep 0.1
done
if [ "$respawned" -ne 1 ]; then
    echo "cluster_smoke: workers never respawned" >&2
    cat "$WORK/daemon.log" >&2 || true
    exit 1
fi

# The resubmit must be served off the shared disk tier — the respawned
# worker never executed this run — and still match the direct bytes.
"$SUBMIT" --connect "$EP" "${req[@]}" >"$WORK/restart.csv"
cmp "$WORK/direct.csv" "$WORK/restart.csv"
"$SUBMIT" --connect "$EP" --stats >"$WORK/stats.tsv"
shared=$(awk '$1 == "cache_shared_hits" {print $2}' "$WORK/stats.tsv")
if [ -z "$shared" ] || [ "$shared" -eq 0 ]; then
    echo "cluster_smoke: expected cache_shared_hits > 0 after worker" \
        "restart, got '${shared:-missing}'" >&2
    cat "$WORK/stats.tsv" >&2
    exit 1
fi
grep -q '^workers	2$' "$WORK/stats.tsv"
echo "cluster_smoke: shared-tier hit after worker restart ($shared)"

# Clean protocol shutdown: balancer fans out, supervisor exits 0.
"$SUBMIT" --connect "$EP" --shutdown
wait "$DAEMON_PID"
DAEMON_PID=
echo "cluster_smoke: OK"
