#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "harness/tenant_sweep.hh"
#include "tenant/mixes.hh"
#include "tenant/tenant_manager.hh"
#include "workloads/registry.hh"

using namespace laperm;
using namespace laperm::tenant;

namespace {

GpuConfig
testConfig()
{
    GpuConfig cfg; // Table I defaults
    cfg.dynParModel = DynParModel::DTBL;
    cfg.tbPolicy = TbPolicy::RR;
    cfg.seed = 1;
    return cfg;
}

MixSpec
soloBfs()
{
    MixSpec mix;
    mix.name = "solo-bfs";
    TenantSpec t;
    t.name = "only";
    t.workload = "bfs-citation";
    t.scale = Scale::Tiny;
    mix.tenants.push_back(t);
    return mix;
}

} // namespace

TEST(TenantManager, SoloTenantScoresExactlyOne)
{
    // A single-tenant mix is its own baseline: the shared run and the
    // solo run are the same deterministic simulation, so ANTT and STP
    // must come out at exactly 1.0 (and Jain is trivially 1.0).
    const MixStudy study = runMixStudy(soloBfs(), testConfig());
    ASSERT_EQ(study.metrics.perTenant.size(), 1u);
    EXPECT_EQ(study.metrics.perTenant[0].antt, 1.0);
    EXPECT_EQ(study.metrics.antt, 1.0);
    EXPECT_EQ(study.metrics.stp, 1.0);
    EXPECT_EQ(study.metrics.jain, 1.0);
    EXPECT_GT(study.metrics.makespan, 0u);
}

TEST(TenantManager, AccountingInvariants)
{
    const MixSpec mix = builtinMix("duo");
    const MixStudy study = runMixStudy(mix, testConfig());

    ASSERT_EQ(study.shared.perTenant.size(), mix.tenants.size());
    for (std::size_t i = 0; i < mix.tenants.size(); ++i) {
        const TenantRunResult &r = study.shared.perTenant[i];
        const TenantSpec &spec = mix.tenants[i];
        EXPECT_EQ(r.name, spec.name);
        EXPECT_EQ(r.tenant, i);
        // Every job completed, one turnaround per job, and one wave
        // latency per (job x host wave).
        EXPECT_EQ(r.jobTurnarounds.size(), spec.jobs);
        auto w = createWorkload(spec.workload);
        w->setup(spec.scale, 1);
        EXPECT_EQ(r.waveLatencies.size(),
                  spec.jobs * w->waves().size());
        // Drained device: everything dispatched also retired.
        EXPECT_EQ(r.retiredTbs, r.dispatchedTbs);
        EXPECT_GT(r.retiredTbs, 0u);
        EXPECT_GT(r.kernelsAdmitted, 0u);
        for (Cycle t : r.jobTurnarounds)
            EXPECT_GT(t, 0u);
    }
    EXPECT_GT(study.shared.makespan, 0u);
}

TEST(TenantManager, PercentilesMonotonePerTenant)
{
    const MixStudy study =
        runMixStudy(builtinMix("duo"), testConfig());
    for (const TenantMetrics &tm : study.metrics.perTenant) {
        EXPECT_LE(tm.p50, tm.p95) << tm.name;
        EXPECT_LE(tm.p95, tm.p99) << tm.name;
        EXPECT_GT(tm.p50, 0u) << tm.name;
    }
}

TEST(TenantManager, RunsAreDeterministic)
{
    const MixSpec mix = builtinMix("duo");
    const MixStudy a = runMixStudy(mix, testConfig());
    const MixStudy b = runMixStudy(mix, testConfig());
    ASSERT_EQ(a.shared.perTenant.size(), b.shared.perTenant.size());
    EXPECT_EQ(a.shared.makespan, b.shared.makespan);
    for (std::size_t i = 0; i < a.shared.perTenant.size(); ++i) {
        EXPECT_EQ(a.shared.perTenant[i].jobTurnarounds,
                  b.shared.perTenant[i].jobTurnarounds);
        EXPECT_EQ(a.shared.perTenant[i].waveLatencies,
                  b.shared.perTenant[i].waveLatencies);
        EXPECT_EQ(a.shared.perTenant[i].retiredTbs,
                  b.shared.perTenant[i].retiredTbs);
        EXPECT_EQ(a.metrics.perTenant[i].antt,
                  b.metrics.perTenant[i].antt);
    }
}

TEST(TenantSweepTsv, RoundTripsExactly)
{
    TenantSweepRow r;
    r.mix = "duo";
    r.preset = "v100";
    r.policy = TbPolicy::AdaptiveBind;
    r.tenant = "graph";
    r.tenantId = 1;
    r.jobs = 2;
    r.antt = 1.0 / 3.0; // needs all 17 digits to round-trip
    r.p50 = 123;
    r.p95 = 456;
    r.p99 = 789;
    r.retiredTbs = 4242;
    r.mixAntt = 2.0 / 3.0;
    r.mixStp = 1.5;
    r.mixJain = 0.1234567890123456789;
    r.makespan = 99999;

    const std::string tsv = encodeTenantSweepTsv({r});
    std::vector<TenantSweepRow> back;
    ASSERT_TRUE(decodeTenantSweepTsv(tsv, back));
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back[0].mix, r.mix);
    EXPECT_EQ(back[0].preset, r.preset);
    EXPECT_EQ(back[0].policy, r.policy);
    EXPECT_EQ(back[0].tenant, r.tenant);
    EXPECT_EQ(back[0].tenantId, r.tenantId);
    EXPECT_EQ(back[0].antt, r.antt); // %.17g bit-exact round trip
    EXPECT_EQ(back[0].mixJain, r.mixJain);
    EXPECT_EQ(back[0].makespan, r.makespan);
    // Re-encoding the decoded rows reproduces the bytes — the cache
    // file is stable across load/store cycles.
    EXPECT_EQ(encodeTenantSweepTsv(back), tsv);

    std::vector<TenantSweepRow> bad;
    EXPECT_FALSE(decodeTenantSweepTsv("duo k20c not-a-policy\n", bad));

    // Corrupt rows built from the good one by replacing one field (or
    // appending a token) must be rejected, not decoded into garbage.
    const std::string row = tsv.substr(tsv.find('\n') + 1);
    auto withField = [&](std::size_t index, const std::string &value) {
        std::istringstream in(row);
        std::vector<std::string> f;
        for (std::string tok; in >> tok;)
            f.push_back(tok);
        f.at(index) = value;
        std::string out;
        for (const std::string &tok : f)
            out += (out.empty() ? "" : " ") + tok;
        return out + "\n";
    };
    const std::string corrupt[] = {
        withField(7, "-5"),            // p50 would wrap to 2^64 - 5
        withField(6, "nan"),           // non-finite ANTT
        withField(2, "4"),             // policy index past AdaptiveBind
        withField(14, "99999 extra"),  // trailing token
    };
    for (const std::string &line : corrupt)
        EXPECT_FALSE(decodeTenantSweepTsv(line, bad)) << line;
}
