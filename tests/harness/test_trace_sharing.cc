/**
 * @file
 * Sharing TB traces across runs is invisible in every result: a sweep
 * whose cells borrow one trace cache per workload encodes byte-for-byte
 * like cells that each build their own traces, at any job count; a mix
 * study's shared run and solo baselines agree with unshared runs; and
 * each TB is built once per workload instance.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gpu/gpu.hh"
#include "harness/experiment.hh"
#include "sim/presets.hh"
#include "tenant/mixes.hh"
#include "tenant/tenant_manager.hh"
#include "test_util.hh"
#include "workloads/registry.hh"

using namespace laperm;
using namespace laperm::test;

namespace {

const std::vector<std::string> kNames = {"bfs-citation", "join-gaussian",
                                         "amr-combustion"};
constexpr std::uint64_t kSeed = 5;
constexpr DynParModel kModels[] = {DynParModel::CDP, DynParModel::DTBL};
constexpr TbPolicy kPolicies[] = {TbPolicy::RR, TbPolicy::TbPri,
                                  TbPolicy::SmxBind,
                                  TbPolicy::AdaptiveBind};

/** The cell configuration runMatrix uses, in its cell order. */
GpuConfig
cellConfig(DynParModel model, TbPolicy policy)
{
    GpuConfig cfg = presetConfig("k20c");
    cfg.dynParModel = model;
    cfg.tbPolicy = policy;
    cfg.seed = kSeed;
    return cfg;
}

/** The sweep with every cell building its own traces. */
std::string
unsharedSweep()
{
    std::vector<RunResult> rows;
    for (const std::string &name : kNames) {
        auto w = createWorkload(name);
        w->setup(Scale::Tiny, kSeed);
        for (DynParModel m : kModels) {
            for (TbPolicy p : kPolicies)
                rows.push_back(runOne(*w, cellConfig(m, p)));
        }
    }
    return encodeSweepTsv(rows);
}

std::uint64_t
tbsExecuted(const GpuStats &s)
{
    std::uint64_t n = 0;
    for (const SmxStats &smx : s.smx)
        n += smx.tbsExecuted;
    return n;
}

} // namespace

TEST(TraceSharing, SweepMatchesUnsharedCellsAtAnyJobs)
{
    ScopedEnv trace("LAPERM_TRACE_DIR", nullptr);
    const std::string expected = unsharedSweep();
    for (unsigned jobs : {1u, 2u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        EXPECT_EQ(encodeSweepTsv(
                      runMatrix(kNames, Scale::Tiny, kSeed, false, jobs)),
                  expected);
    }
}

TEST(TraceSharing, EachTbBuiltOncePerWorkloadInstance)
{
    for (const std::string &name : kNames) {
        SCOPED_TRACE(name);
        auto w = createWorkload(name);
        w->setup(Scale::Tiny, kSeed);
        TraceCache cache;
        std::vector<std::uint64_t> tbs;
        for (DynParModel m : kModels) {
            for (TbPolicy p : kPolicies) {
                Gpu gpu(cellConfig(m, p), &cache);
                gpu.runWaves(w->waves());
                tbs.push_back(tbsExecuted(gpu.stats()));
            }
        }
        // Every cell dispatches the same TB set, and the 8 cells
        // together built each of those TBs exactly once.
        for (std::uint64_t n : tbs)
            EXPECT_EQ(n, tbs[0]);
        EXPECT_GT(tbs[0], 0u);
        EXPECT_EQ(cache.builds(), tbs[0]);
    }
}

TEST(TraceSharing, MixStudyMatchesUnsharedRuns)
{
    const tenant::MixSpec mix = tenant::builtinMix("duo");
    GpuConfig cfg;
    cfg.dynParModel = DynParModel::DTBL;
    cfg.tbPolicy = TbPolicy::AdaptiveBind;
    cfg.seed = 1;
    const tenant::MixStudy shared = tenant::runMixStudy(mix, cfg);

    // runMixStudy's workload layout, with every run building its own
    // traces.
    std::vector<std::unique_ptr<Workload>> owned;
    std::vector<const Workload *> borrowed;
    for (std::size_t i = 0; i < mix.tenants.size(); ++i) {
        owned.push_back(createWorkload(mix.tenants[i].workload));
        if (i > 0) {
            owned.back()->setMemoryBase(0x10000000ull +
                                        (static_cast<Addr>(i) << 38));
        }
        owned.back()->setup(mix.tenants[i].scale, cfg.seed);
        borrowed.push_back(owned.back().get());
    }
    const tenant::MultiTenantResult run =
        tenant::TenantManager(mix, cfg, borrowed).run();
    std::vector<tenant::TenantRunResult> solo;
    for (std::size_t i = 0; i < mix.tenants.size(); ++i) {
        tenant::MixSpec one = mix;
        one.name = mix.name + "-solo-" + mix.tenants[i].name;
        one.tenants = {mix.tenants[i]};
        solo.push_back(
            tenant::TenantManager(one, cfg, {borrowed[i]}).run().perTenant[0]);
        solo.back().tenant = static_cast<std::uint32_t>(i);
    }
    const tenant::MixMetrics m = tenant::computeMixMetrics(run, solo);

    EXPECT_EQ(shared.metrics.antt, m.antt);
    EXPECT_EQ(shared.metrics.stp, m.stp);
    EXPECT_EQ(shared.metrics.jain, m.jain);
    EXPECT_EQ(shared.metrics.makespan, m.makespan);
    ASSERT_EQ(shared.metrics.perTenant.size(), m.perTenant.size());
    for (std::size_t i = 0; i < m.perTenant.size(); ++i) {
        EXPECT_EQ(shared.metrics.perTenant[i].antt, m.perTenant[i].antt);
        EXPECT_EQ(shared.metrics.perTenant[i].p99, m.perTenant[i].p99);
        EXPECT_EQ(shared.metrics.perTenant[i].retiredTbs,
                  m.perTenant[i].retiredTbs);
        EXPECT_EQ(shared.shared.perTenant[i].waveLatencies,
                  run.perTenant[i].waveLatencies);
        EXPECT_EQ(shared.solo[i].jobTurnarounds, solo[i].jobTurnarounds);
    }
}
