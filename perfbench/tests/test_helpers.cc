// Tests of the benchmark's own helpers: the percentile rule and span
// self-time accounting.

#include <gtest/gtest.h>

#include <vector>

#include "spans.hh"
#include "stats.hh"

using namespace perfbench;

namespace {

std::vector<double>
iota(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = 1; i <= n; ++i)
        v.push_back(static_cast<double>(i));
    return v;
}

} // namespace

TEST(Percentile, NearestRank)
{
    const std::vector<double> v = iota(200);
    EXPECT_EQ(percentileSorted(v, 50.0), 100.0);
    EXPECT_EQ(percentileSorted(v, 95.0), 190.0);
    EXPECT_EQ(percentileSorted(v, 100.0), 200.0);
    EXPECT_EQ(percentileSorted({7.0}, 50.0), 7.0);
}

TEST(Percentile, RefusesWithoutTenSamplesBeyond)
{
    EXPECT_EQ(supportedPercentile(iota(200), 95.0), 190.0);
    EXPECT_FALSE(supportedPercentile(iota(199), 95.0).has_value());
    EXPECT_EQ(supportedPercentile(iota(1000), 99.0), 990.0);
    EXPECT_FALSE(supportedPercentile(iota(999), 99.0).has_value());
    EXPECT_FALSE(supportedPercentile({}, 50.0).has_value());
    EXPECT_FALSE(supportedPercentile(iota(10), 50.0).has_value());
}

TEST(Percentile, MinSamples)
{
    EXPECT_EQ(minSamplesFor(95.0), 200u);
    EXPECT_EQ(minSamplesFor(99.0), 1000u);
    EXPECT_EQ(minSamplesFor(99.9), 10000u);
    EXPECT_EQ(minSamplesFor(50.0), 20u);
}

TEST(Percentile, SummaryPicksHighestSupported)
{
    std::vector<double> v = iota(1500);
    Summary s = summarize(v);
    EXPECT_EQ(s.n, 1500u);
    EXPECT_EQ(s.p50, 750.0);
    EXPECT_EQ(s.tailQ, 99.0);
    EXPECT_EQ(s.tail, 1485.0);

    std::vector<double> few = {3.0, 1.0, 2.0};
    s = summarize(few);
    EXPECT_EQ(s.p50, 2.0);
    EXPECT_EQ(s.tailQ, 0.0); // nothing above the median is supported
}

TEST(Spans, SelfTimeSubtractsUnionOfChildren)
{
    // root [0,100); two overlapping children [10,40) and [30,60); a
    // grandchild inside the first child; a child poking past the root.
    std::vector<Span> spans = {
        {"bench.root", 0, 100, -1, 0},  {"gpu.run", 10, 40, 0, 1},
        {"gpu.run", 30, 60, 0, 2},      {"kernels.build", 15, 25, 1, 1},
        {"harness.cell", 90, 120, 0, 3},
    };
    const std::vector<std::int64_t> self = selfTimes(spans);
    EXPECT_EQ(self[0], 100 - (60 - 10) - (100 - 90));
    EXPECT_EQ(self[1], 30 - 10);
    EXPECT_EQ(self[2], 30);
    EXPECT_EQ(self[3], 10);

    const auto layers = layerTimes(spans);
    EXPECT_EQ(layers.at("gpu").spans, 2u);
    EXPECT_EQ(layers.at("gpu").totalNs, 60);
    EXPECT_EQ(layers.at("gpu").selfNs, 50);
    EXPECT_EQ(layers.at("bench").selfNs, 40);
}

TEST(Spans, LogRecordsParentAndRequest)
{
    SpanLog log;
    const std::int64_t root = log.open("bench.timed", -1, 0);
    {
        ScopedSpan s(&log, "session.call", root, 7);
        EXPECT_EQ(s.id(), 1);
    }
    log.close(root);
    ScopedSpan off(nullptr, "ignored", -1);
    const std::vector<Span> spans = log.snapshot();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[1].parent, 0);
    EXPECT_EQ(spans[1].request, 7u);
    EXPECT_LE(spans[0].startNs, spans[1].startNs);
    EXPECT_GE(spans[0].endNs, spans[1].endNs);
}
