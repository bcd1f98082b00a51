#!/usr/bin/env bash
# serve-smoke: end-to-end check of the serving subsystem against real
# binaries (see DESIGN.md §10).
#
#   1. start laperm_served on a private socket + private cache dir
#   2. wait for readiness via --ping
#   3. submit the same simulation directly (laperm_sim --csv), cold
#      through the daemon, and again cached — all three must be
#      byte-identical; then once more on a non-default machine with the
#      flags in a different order on each side
#   4. batch submission prints the sweep-format TSV
#   5. --stats returns the metrics snapshot
#   6. protocol shutdown; the daemon must exit cleanly and remove its
#      socket
#
# Usage: scripts/serve_smoke.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
SIM="$BUILD/src/laperm_sim"
SERVED="$BUILD/src/laperm_served"
SUBMIT="$BUILD/src/laperm_submit"

for bin in "$SIM" "$SERVED" "$SUBMIT"; do
    if [ ! -x "$bin" ]; then
        echo "serve_smoke: missing binary '$bin' (build first)" >&2
        exit 1
    fi
done

WORK=$(mktemp -d /tmp/laperm_serve_smoke.XXXXXX)
SOCK="$WORK/served.sock"
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

"$SERVED" --listen "unix:$SOCK" --jobs 2 >"$WORK/daemon.log" 2>&1 &
DAEMON_PID=$!

# Readiness: the daemon may still be binding the socket.
ready=0
for _ in $(seq 1 100); do
    if "$SUBMIT" --connect "unix:$SOCK" --ping >/dev/null 2>&1; then
        ready=1
        break
    fi
    sleep 0.1
done
if [ "$ready" -ne 1 ]; then
    echo "serve_smoke: daemon never became ready" >&2
    cat "$WORK/daemon.log" >&2 || true
    exit 1
fi
"$SUBMIT" --connect "unix:$SOCK" --ping

# Determinism contract: direct, cold-served, and cache-served output
# must be byte-identical.
req=(--workload bfs-cage --scale tiny --seed 1)
"$SIM" "${req[@]}" --csv >"$WORK/direct.csv"
"$SUBMIT" --connect "unix:$SOCK" "${req[@]}" >"$WORK/cold.csv"
"$SUBMIT" --connect "unix:$SOCK" "${req[@]}" >"$WORK/cached.csv"
cmp "$WORK/direct.csv" "$WORK/cold.csv"
cmp "$WORK/direct.csv" "$WORK/cached.csv"
echo "serve_smoke: direct/cold/cached outputs byte-identical"

# Both CLIs hand their run flags to the wire's parser, so machine flags
# apply in its fixed order (preset, config, single fields) whatever the
# argv order: the same machine, down to the CSV's config-hash column.
"$SIM" --csv --preset p100 --l1-kb 16 --warp-sched lrr --scale tiny \
    >"$WORK/direct_p100.csv"
"$SUBMIT" --connect "unix:$SOCK" --warp-sched lrr --scale tiny \
    --l1-kb 16 --preset p100 >"$WORK/served_p100.csv"
head -1 "$WORK/direct_p100.csv" | grep -q ',config$'
cmp "$WORK/direct_p100.csv" "$WORK/served_p100.csv"
echo "serve_smoke: custom-machine direct/served outputs byte-identical"

# Batch submission prints the sweep-harness TSV format.
printf '%s\n' \
    '{"op":"run","workload":"bfs-cage","scale":"tiny","seed":1}' \
    '{"op":"run","workload":"bfs-cage","scale":"tiny","seed":2}' \
    >"$WORK/batch.jsonl"
"$SUBMIT" --connect "unix:$SOCK" --batch "$WORK/batch.jsonl" >"$WORK/batch.tsv"
[ "$(wc -l <"$WORK/batch.tsv")" -eq 3 ] # header comment + 2 rows
head -1 "$WORK/batch.tsv" | grep -q '^# workload'
echo "serve_smoke: batch TSV ok"

# Metrics snapshot through the stats verb.
"$SUBMIT" --connect "unix:$SOCK" --stats >"$WORK/stats.tsv"
grep -q '^cache_hits' "$WORK/stats.tsv"
grep -q '^executed' "$WORK/stats.tsv"

# Clean protocol shutdown: daemon exits 0 and removes its socket.
"$SUBMIT" --connect "unix:$SOCK" --shutdown
wait "$DAEMON_PID"
DAEMON_PID=
if [ -e "$SOCK" ]; then
    echo "serve_smoke: daemon left its socket behind" >&2
    exit 1
fi
echo "serve_smoke: OK"
