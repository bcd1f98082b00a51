#include <gtest/gtest.h>

#include "sim/config.hh"
#include "sim/stats.hh"

using namespace laperm;

TEST(Config, DefaultsValidate)
{
    GpuConfig cfg;
    cfg.validate(); // must not fatal
    EXPECT_EQ(cfg.numSmx, 13u);
}

TEST(Config, CheckRejectsDegenerateMemoryGeometry)
{
    const struct
    {
        const char *why;
        void (*mutate)(GpuConfig &);
    } kBad[] = {
        {"zero L1 size", [](GpuConfig &c) { c.l1Size = 0; }},
        {"zero L2 size", [](GpuConfig &c) { c.l2Size = 0; }},
        {"zero L1 assoc", [](GpuConfig &c) { c.l1Assoc = 0; }},
        {"L1 size not a multiple of assoc*line",
         [](GpuConfig &c) { c.l1Size = 1000; }},
        {"L2 size not a multiple of assoc*line",
         [](GpuConfig &c) { c.l2Size = 3 * 1024; }},
        {"zero L2 banks", [](GpuConfig &c) { c.l2Banks = 0; }},
        {"zero DRAM banks", [](GpuConfig &c) { c.dramBanksPerChannel = 0; }},
    };
    for (const auto &bad : kBad) {
        GpuConfig cfg;
        bad.mutate(cfg);
        EXPECT_NE(cfg.check(), "") << bad.why;
    }
}

TEST(Config, EffectiveOnchipEntriesLimitedForCdp)
{
    GpuConfig cfg;
    cfg.onchipQueueEntries = 128;
    cfg.kduEntries = 32;
    cfg.dynParModel = DynParModel::CDP;
    EXPECT_EQ(cfg.effectiveOnchipEntries(), 32u);
    cfg.dynParModel = DynParModel::DTBL;
    EXPECT_EQ(cfg.effectiveOnchipEntries(), 128u);
}

TEST(Config, ToStringNames)
{
    EXPECT_STREQ(toString(TbPolicy::RR), "RR");
    EXPECT_STREQ(toString(TbPolicy::TbPri), "TB-Pri");
    EXPECT_STREQ(toString(TbPolicy::SmxBind), "SMX-Bind");
    EXPECT_STREQ(toString(TbPolicy::AdaptiveBind), "Adaptive-Bind");
    EXPECT_STREQ(toString(DynParModel::CDP), "CDP");
    EXPECT_STREQ(toString(DynParModel::DTBL), "DTBL");
    EXPECT_STREQ(toString(WarpPolicy::GTO), "GTO");
}

TEST(Config, SummaryMentionsPolicy)
{
    GpuConfig cfg;
    cfg.tbPolicy = TbPolicy::AdaptiveBind;
    EXPECT_NE(cfg.summary().find("Adaptive-Bind"), std::string::npos);
}

TEST(Stats, CacheHitRate)
{
    CacheStats s;
    EXPECT_DOUBLE_EQ(s.hitRate(), 0.0);
    s.accesses = 10;
    s.hits = 4;
    EXPECT_DOUBLE_EQ(s.hitRate(), 0.4);
}

TEST(Stats, CacheAdd)
{
    CacheStats a, b;
    a.accesses = 5;
    a.hits = 2;
    b.accesses = 3;
    b.hits = 1;
    a.add(b);
    EXPECT_EQ(a.accesses, 8u);
    EXPECT_EQ(a.hits, 3u);
}

TEST(Stats, GpuIpcAndAggregates)
{
    GpuStats s;
    s.cycles = 100;
    s.smx.resize(2);
    s.smx[0].threadInstructions = 300;
    s.smx[1].threadInstructions = 200;
    s.smx[0].busyCycles = 80;
    s.smx[1].busyCycles = 40;
    EXPECT_DOUBLE_EQ(s.ipc(), 5.0);
    EXPECT_DOUBLE_EQ(s.avgSmxUtilization(), 0.6);
    EXPECT_DOUBLE_EQ(s.smxImbalance(), 0.5);
}

TEST(Stats, L1TotalAggregates)
{
    GpuStats s;
    s.l1.resize(3);
    for (auto &c : s.l1) {
        c.accesses = 10;
        c.hits = 5;
    }
    EXPECT_EQ(s.l1Total().accesses, 30u);
    EXPECT_DOUBLE_EQ(s.l1Total().hitRate(), 0.5);
}
