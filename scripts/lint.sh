#!/usr/bin/env bash
# Static-analysis entry point: a grep for ad-hoc number conversions,
# sim-lint (determinism + architecture rules, DESIGN.md §12) plus the
# curated clang-tidy profile in .clang-tidy. Exits nonzero on any
# finding.
#
# sim-lint runs all three passes (token, layering, cycle-safety) with
# per-pass timing, fails fast before the tidy
# stage, and leaves a SARIF artifact at $BUILD_DIR/sim_lint.sarif for
# CI annotation upload.
#
# clang-tidy is optional: images without LLVM (like the default build
# container, which ships only gcc) skip that stage with a notice; the
# sim-lint gate always runs.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${LAPERM_LINT_BUILD:-build}"
JOBS="${LAPERM_JOBS:-$(nproc)}"

# --- Stage 0: one number parser ----------------------------------------
# Text-to-number conversion goes through src/common/text.hh (DESIGN.md
# §13.6); a bare strto*/ato*/std::sto* call elsewhere silently accepts
# signs, junk and overflow the checked parsers reject.
if grep -rnE '\b(strto[a-z]*|ato[il]|std::sto[a-z]*)\s*\(' src bench |
    grep -v '^src/common/'; then
    echo "lint.sh: ad-hoc number conversion outside src/common/;" \
         "use parseUInt/parseFiniteDouble (common/text.hh)" >&2
    exit 1
fi
echo "lint.sh: number conversions all go through src/common/"

# --- Stage 1: sim-lint -------------------------------------------------
if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
    cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
fi
cmake --build "$BUILD_DIR" --target sim_lint -j"$JOBS" >/dev/null
"$BUILD_DIR"/src/sim_lint --root . --timings \
    --sarif "$BUILD_DIR/sim_lint.sarif"
echo "lint.sh: sim-lint clean (SARIF: $BUILD_DIR/sim_lint.sarif)"

# --- Stage 2: clang-tidy ----------------------------------------------
if command -v clang-tidy >/dev/null 2>&1; then
    # A dedicated tree keeps tidy's compile database in sync with
    # LAPERM_TIDY without dirtying the main build.
    cmake -B build-tidy -S . -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    if command -v run-clang-tidy >/dev/null 2>&1; then
        run-clang-tidy -p build-tidy -quiet -j "$JOBS" \
            "$(pwd)/src/.*\.cc$"
    else
        find src -name '*.cc' -print0 |
            xargs -0 -n 8 clang-tidy -p build-tidy --quiet
    fi
    echo "lint.sh: clang-tidy clean"
else
    echo "lint.sh: clang-tidy not found; skipping tidy stage" \
         "(profile: .clang-tidy)"
fi

echo "lint.sh: all lint stages passed"
