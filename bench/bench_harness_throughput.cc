/**
 * @file
 * Wall-clock self-benchmark of the parallel sweep executor: runs the
 * full workload matrix serially (1 worker) and in parallel (LAPERM_JOBS
 * or 4 workers), verifies that both produce identical results and a
 * byte-identical TSV cache, and writes BENCH_sweep.json with cells/sec
 * for each setting so the speedup is tracked across PRs.
 *
 * Environment:
 *   LAPERM_BENCH_SCALE  tiny | small | full (default tiny)
 *   LAPERM_JOBS         parallel worker count (default 4)
 *
 * Exits nonzero if the parallel sweep diverges from the serial one.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hh"
#include "common/text.hh"
#include "harness/experiment.hh"
#include "workloads/registry.hh"

using namespace laperm;

namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

bool
sameResults(const std::vector<RunResult> &a,
            const std::vector<RunResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const RunResult &x = a[i];
        const RunResult &y = b[i];
        if (x.workload != y.workload || x.model != y.model ||
            x.policy != y.policy || x.ipc != y.ipc ||
            x.l1HitRate != y.l1HitRate || x.l2HitRate != y.l2HitRate ||
            x.cycles != y.cycles ||
            x.smxUtilization != y.smxUtilization ||
            x.smxImbalance != y.smxImbalance ||
            x.boundFraction != y.boundFraction ||
            x.queueOverflows != y.queueOverflows ||
            x.kduFullStalls != y.kduFullStalls) {
            return false;
        }
    }
    return true;
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

int
main()
{
    setVerbose(false);
    // The sweep must actually simulate (and write a fresh cache), not
    // read a previous run's TSV.
    unsetenv("LAPERM_NO_CACHE");

    const Scale scale = [] {
        if (const char *env = std::getenv("LAPERM_BENCH_SCALE"))
            return scaleFromString(env);
        return Scale::Tiny;
    }();
    const std::uint64_t seed = 1;
    const auto jobs =
        static_cast<unsigned>(envCount("LAPERM_JOBS", UINT32_MAX, 4));

    const std::vector<std::string> &names = workloadNames();
    const std::string cache = sweepCachePath(scale, seed);
    const std::string serialCopy = cache + ".serial";

    // Serial reference sweep.
    std::remove(cache.c_str());
    auto t0 = std::chrono::steady_clock::now();
    auto serial = runMatrix(names, scale, seed, true, 1);
    const double serialSec = secondsSince(t0);
    std::rename(cache.c_str(), serialCopy.c_str());

    // Parallel sweep into a fresh cache file.
    t0 = std::chrono::steady_clock::now();
    auto parallel = runMatrix(names, scale, seed, true, jobs);
    const double parallelSec = secondsSince(t0);

    const bool resultsIdentical = sameResults(serial, parallel);
    const bool tsvIdentical =
        !readFile(cache).empty() && readFile(cache) == readFile(serialCopy);
    std::remove(serialCopy.c_str());

    const double cells = static_cast<double>(serial.size());
    const double speedup =
        parallelSec > 0.0 ? serialSec / parallelSec : 0.0;

    std::ofstream json("BENCH_sweep.json");
    json << "{\n"
         << "  \"bench\": \"harness_sweep_throughput\",\n"
         << "  \"scale\": \"" << toString(scale) << "\",\n"
         << "  \"seed\": " << seed << ",\n"
         << "  \"workloads\": " << names.size() << ",\n"
         << "  \"cells\": " << serial.size() << ",\n"
         << "  \"hardware_threads\": "
         << std::thread::hardware_concurrency() << ",\n"
         << "  \"jobs_serial\": 1,\n"
         << "  \"seconds_serial\": " << serialSec << ",\n"
         << "  \"cells_per_sec_serial\": " << cells / serialSec << ",\n"
         << "  \"jobs_parallel\": " << jobs << ",\n"
         << "  \"seconds_parallel\": " << parallelSec << ",\n"
         << "  \"cells_per_sec_parallel\": " << cells / parallelSec
         << ",\n"
         << "  \"speedup\": " << speedup << ",\n"
         << "  \"results_identical\": "
         << (resultsIdentical ? "true" : "false") << ",\n"
         << "  \"tsv_identical\": " << (tsvIdentical ? "true" : "false")
         << "\n"
         << "}\n";
    json.close();

    std::printf("sweep: %zu cells, scale %s\n", serial.size(),
                toString(scale));
    std::printf("  1 job : %.3f s  (%.1f cells/s)\n", serialSec,
                cells / serialSec);
    std::printf("  %u jobs: %.3f s  (%.1f cells/s)  speedup %.2fx\n",
                jobs, parallelSec, cells / parallelSec, speedup);
    std::printf("  results identical: %s, TSV byte-identical: %s\n",
                resultsIdentical ? "yes" : "NO",
                tsvIdentical ? "yes" : "NO");
    std::printf("  wrote BENCH_sweep.json\n");

    if (!resultsIdentical || !tsvIdentical) {
        std::fprintf(stderr,
                     "FAIL: parallel sweep diverged from serial\n");
        return 1;
    }
    return 0;
}
