/**
 * @file
 * Plain-main concurrency smoke for the parallel sweep executor. This
 * is the binary the ThreadSanitizer CTest configuration runs (see
 * scripts/verify.sh): it deliberately avoids gtest so every linked
 * object is TSan-instrumented, keeping the race report clean.
 *
 * Exercises: parallel workload setup, concurrent cells sharing one
 * workload and its TB trace cache, concurrent mix studies each
 * sharing a trace cache between their shared and solo runs, logging
 * from workers, and pool exception propagation.
 */

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/log.hh"
#include "harness/experiment.hh"
#include "harness/tenant_sweep.hh"
#include "harness/thread_pool.hh"

using namespace laperm;

int
main()
{
    setVerbose(true); // force worker-thread inform() traffic

    // Exception propagation under contention.
    {
        ThreadPool pool(4);
        for (int i = 0; i < 32; ++i) {
            pool.submit([i] {
                if (i == 13)
                    throw std::runtime_error("expected");
                laperm_inform("pool job %d", i);
            });
        }
        bool threw = false;
        try {
            pool.wait();
        } catch (const std::runtime_error &) {
            threw = true;
        }
        if (!threw) {
            std::fprintf(stderr, "FAIL: pool swallowed the exception\n");
            return 1;
        }
    }

    // Two workloads x 8 cells, 8 workers vs 1 worker must agree.
    const std::vector<std::string> names = {"bfs-cage", "join-uniform"};
    auto serial = runMatrix(names, Scale::Tiny, 3, false, 1);
    auto parallel = runMatrix(names, Scale::Tiny, 3, false, 8);
    if (serial.size() != parallel.size()) {
        std::fprintf(stderr, "FAIL: sweep size mismatch\n");
        return 1;
    }
    for (std::size_t i = 0; i < serial.size(); ++i) {
        if (serial[i].cycles != parallel[i].cycles ||
            serial[i].ipc != parallel[i].ipc ||
            serial[i].workload != parallel[i].workload) {
            std::fprintf(stderr, "FAIL: cell %zu diverged\n", i);
            return 1;
        }
    }

    // Mix x policy cells, 4 workers vs 1 worker must agree.
    const std::vector<std::string> mixes = {"duo"};
    const std::string soloTsv =
        encodeTenantSweepTsv(runTenantSweep(mixes, {"k20c"}, 3, false, 1));
    const std::string poolTsv =
        encodeTenantSweepTsv(runTenantSweep(mixes, {"k20c"}, 3, false, 4));
    if (soloTsv.empty() || soloTsv != poolTsv) {
        std::fprintf(stderr, "FAIL: tenant sweep diverged\n");
        return 1;
    }
    std::printf("harness_parallel_smoke: ok (%zu cells)\n",
                serial.size());
    return 0;
}
