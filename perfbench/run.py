#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/LAYERS.md).

Run from the repository root:

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles ../src)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later
calls only rebuild what changed. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. Exits nonzero
without a result when the sources cannot be built.
"""

import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_TYPE = "RelWithDebInfo"


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def run_checked(cmd):
    """Run a build step with its output on stderr; exit on failure."""
    rc = subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if rc != 0:
        sys.stderr.write("perfbench: %s failed (%d)\n" % (cmd[0], rc))
        sys.exit(rc if rc > 0 else 1)


def build(target):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        run_checked(["cmake", "-S", BENCH_DIR, "-B", out,
                     "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    jobs = str(min(4, os.cpu_count() or 1))
    run_checked(["cmake", "--build", out, "--target", target, "-j", jobs])
    return os.path.join(out, target)


def run_child(cmd):
    """Run cmd with stdout passed through; stop it if we are stopped."""
    child = subprocess.Popen(cmd)
    stopped = []

    def forward(signum, _frame):
        # Only signal here: waiting inside the handler would deadlock
        # on the lock the interrupted child.wait() below holds.
        stopped.append(signum)
        child.terminate()

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    rc = child.wait()
    return 128 + stopped[0] if stopped else rc


def main(argv):
    if argv == ["--selftest"]:
        return run_child([build("perfbench_selftest")])
    binary = build("laperm_perfbench")
    work = os.path.join(build_dir(), "work-%d" % os.getpid())
    rc = run_child([binary] + argv +
                   ["--digests", os.path.join(BENCH_DIR, "digests.tsv"),
                    "--work-dir", work])
    return rc if rc >= 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
