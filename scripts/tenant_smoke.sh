#!/usr/bin/env bash
# Multi-tenant determinism gate (DESIGN.md §14): the tenant decision
# loop only drives the device between slices, so its artifacts must be
# byte-identical across harness parallelism, and the CLI must agree
# with the sweep harness.
#
#   1. bench_multitenant, LAPERM_JOBS=1 vs LAPERM_JOBS=8:
#      BENCH_multitenant.json and the sweep cache TSVs byte-compare.
#   2. laperm_sim --tenants duo: every row of its --tenants-tsv
#      artifact appears verbatim in the sweep's duo cache TSV.
#
# Usage: scripts/tenant_smoke.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
SIM="$BUILD/src/laperm_sim"
BENCH="$BUILD/bench/bench_multitenant"
for bin in "$SIM" "$BENCH"; do
    if [ ! -x "$bin" ]; then
        echo "tenant_smoke.sh: $bin not built" >&2
        exit 1
    fi
done

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
fail=0

# -- 1. Bench: serial vs parallel, cold caches ----------------------
# The bench walks the full mix x policy x preset grid; restrict it to
# one small mix and one preset so the gate stays fast.
unset LAPERM_NO_CACHE
export LAPERM_TENANT_MIXES=duo
export LAPERM_TENANT_PRESETS=k20c
run_bench() { # jobs outdir
    local out="$TMP/$2"
    mkdir -p "$out"
    (cd "$out" &&
        LAPERM_JOBS="$1" LAPERM_CACHE_DIR="$out/cache" \
            "$OLDPWD/$BENCH" >bench_stdout.txt)
}
run_bench 1 bench-a
run_bench 8 bench-b

if ! cmp -s "$TMP/bench-a/BENCH_multitenant.json" \
    "$TMP/bench-b/BENCH_multitenant.json"; then
    echo "tenant_smoke.sh: BENCH_multitenant.json differs between" \
        "LAPERM_JOBS=1 and LAPERM_JOBS=8" >&2
    fail=1
fi
for a in "$TMP/bench-a/cache"/laperm_tenants_*.tsv; do
    b="$TMP/bench-b/cache/$(basename "$a")"
    if ! cmp -s "$a" "$b"; then
        echo "tenant_smoke.sh: cache $(basename "$a") differs" >&2
        fail=1
    fi
done

# -- 2. CLI front end: its rows are the sweep's rows ----------------
# bench_multitenant sweeps seed 1, the CLI's default seed.
LAPERM_NO_CACHE=1 "$SIM" --tenants duo \
    --tenants-tsv "$TMP/cli_duo.tsv" >"$TMP/cli_stdout.txt"
sweep_tsv="$TMP/bench-a/cache/laperm_tenants_duo_k20c_1.tsv"
if [ ! -f "$sweep_tsv" ] || ! grep -q '^duo ' "$TMP/cli_duo.tsv" ||
    grep -v '^#' "$TMP/cli_duo.tsv" | grep -vqFx -f "$sweep_tsv"; then
    echo "tenant_smoke.sh: laperm_sim --tenants duo rows missing" \
        "from $(basename "$sweep_tsv")" >&2
    fail=1
fi
[ "$fail" -eq 0 ] || exit 1

echo "tenant_smoke.sh: multi-tenant artifacts byte-identical across" \
    "LAPERM_JOBS; CLI rows match the sweep"
