#include <gtest/gtest.h>

#include <functional>

#include "kernels/lambda_program.hh"
#include "kernels/warp_trace.hh"

using namespace laperm;

namespace {

/** Warp 0 of a one-warp TB of @p count threads running @p body. */
struct OneWarp
{
    std::shared_ptr<const TbTrace> trace;
    std::span<const WarpOp> ops;
};

OneWarp
buildWarp(std::uint32_t count, std::function<void(ThreadCtx &)> body)
{
    LambdaProgram program("t", allocateFunctionId(), std::move(body));
    std::vector<ThreadCtx> scratch;
    OneWarp w;
    w.trace = TbTrace::build(program, 0, count, 1, scratch);
    EXPECT_EQ(w.trace->numWarps(), 1u);
    w.ops = w.trace->warp(0);
    return w;
}

} // namespace

TEST(WarpTrace, CoalescedLoadsMergeToOneLine)
{
    // 32 threads loading consecutive 4-byte words in one line.
    auto w = buildWarp(32, [](ThreadCtx &c) {
        c.ld(c.threadIndex() * 4, 4);
    });
    const auto &ops = w.ops;
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(ops[0].kind, OpKind::Load);
    EXPECT_EQ(ops[0].activeLanes, 32u);
    EXPECT_EQ(ops[0].lines.size(), 1u);
}

TEST(WarpTrace, ScatteredLoadsProduceManyLines)
{
    auto w = buildWarp(32, [](ThreadCtx &c) {
        c.ld(static_cast<Addr>(c.threadIndex()) * 4096, 4);
    });
    const auto &ops = w.ops;
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(ops[0].lines.size(), 32u);
}

TEST(WarpTrace, AluTakesMaxOverLanes)
{
    auto w = buildWarp(4, [](ThreadCtx &c) {
        c.alu(c.threadIndex() + 1);
    });
    const auto &ops = w.ops;
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(ops[0].aluCycles, 4u);
}

TEST(WarpTrace, DivergentKindsSerialize)
{
    // Even threads compute, odd threads load: two warp ops.
    auto w = buildWarp(4, [](ThreadCtx &c) {
        if (c.threadIndex() % 2 == 0)
            c.alu(2);
        else
            c.ld(0);
    });
    const auto &ops = w.ops;
    ASSERT_EQ(ops.size(), 2u);
    EXPECT_EQ(ops[0].activeLanes, 2u);
    EXPECT_EQ(ops[1].activeLanes, 2u);
    EXPECT_NE(ops[0].kind, ops[1].kind);
}

TEST(WarpTrace, UnevenTraceLengths)
{
    auto w = buildWarp(3, [](ThreadCtx &c) {
        for (std::uint32_t i = 0; i <= c.threadIndex(); ++i)
            c.ld(i * 4096 + c.threadIndex() * 131072);
    });
    const auto &ops = w.ops;
    // Positions: step0 all 3 lanes, step1 two lanes, step2 one lane.
    ASSERT_EQ(ops.size(), 3u);
    EXPECT_EQ(ops[0].activeLanes, 3u);
    EXPECT_EQ(ops[1].activeLanes, 2u);
    EXPECT_EQ(ops[2].activeLanes, 1u);
}

TEST(WarpTrace, BarrierWaitsForAllLanes)
{
    // Lane 0 reaches the bar immediately; lane 1 loads first. The bar
    // must issue once, after the load, with both lanes.
    auto w = buildWarp(2, [](ThreadCtx &c) {
        if (c.threadIndex() == 1)
            c.ld(0);
        c.bar();
        c.alu(1);
    });
    const auto &ops = w.ops;
    ASSERT_EQ(ops.size(), 3u);
    EXPECT_EQ(ops[0].kind, OpKind::Load);
    EXPECT_EQ(ops[1].kind, OpKind::Bar);
    EXPECT_EQ(ops[1].activeLanes, 2u);
    EXPECT_EQ(ops[2].kind, OpKind::Alu);
}

TEST(WarpTrace, LaunchGathersPerLaneRequests)
{
    auto child = std::make_shared<LambdaProgram>(
        "c", allocateFunctionId(), [](ThreadCtx &c) { c.alu(1); });
    auto w = buildWarp(4, [&](ThreadCtx &c) {
        if (c.threadIndex() < 2)
            c.launch({child, c.threadIndex() + 1, 32});
    });
    const auto &ops = w.ops;
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(ops[0].kind, OpKind::Launch);
    ASSERT_EQ(ops[0].launches.size(), 2u);
    EXPECT_EQ(ops[0].launches[0].numTbs, 1u);
    EXPECT_EQ(ops[0].launches[1].numTbs, 2u);
}

TEST(WarpTrace, EmptyThreadsProduceNoOps)
{
    auto w = buildWarp(2, [](ThreadCtx &) {});
    EXPECT_TRUE(w.ops.empty());
}
