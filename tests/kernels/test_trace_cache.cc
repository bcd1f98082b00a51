/**
 * @file
 * TraceCache contract: each key is built once, concurrent callers for
 * a key share one build, and cached traces keep their child programs
 * alive for as long as the cache lives.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>

#include "gpu/gpu.hh"
#include "kernels/lambda_program.hh"
#include "kernels/trace_cache.hh"

using namespace laperm;

namespace {

/** A leaf kernel that counts its live instances. */
class CountedChild : public KernelProgram
{
  public:
    static std::atomic<int> alive;

    CountedChild() { ++alive; }
    ~CountedChild() override { --alive; }

    std::string name() const override { return "counted-child"; }
    std::uint32_t functionId() const override { return kFunction; }
    void emitThread(ThreadCtx &ctx) const override
    {
        ctx.ld(0x100000 + ctx.globalThreadIndex() * 4);
        ctx.alu(2);
    }

  private:
    static const std::uint32_t kFunction;
};

std::atomic<int> CountedChild::alive{0};
const std::uint32_t CountedChild::kFunction = allocateFunctionId();

/**
 * A parent whose lane 0 launches a child built inside emitThread, as
 * the workloads do: the launch request in the trace is the child
 * program's only owner.
 */
std::shared_ptr<const KernelProgram>
makeParent()
{
    return std::make_shared<LambdaProgram>(
        "parent", allocateFunctionId(), [](ThreadCtx &c) {
            c.ld(c.globalThreadIndex() * 4);
            if (c.threadIndex() == 0)
                c.launch({std::make_shared<CountedChild>(), 2, 64});
            c.alu(4);
        });
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

TEST(TraceCache, BuildsEachKeyOnce)
{
    const auto prog = makeParent();
    TraceCache cache;
    std::vector<ThreadCtx> scratch;
    const auto a = cache.get(prog, 0, 64, 2, scratch);
    const auto b = cache.get(prog, 0, 64, 2, scratch);
    EXPECT_EQ(a, b);
    EXPECT_EQ(cache.builds(), 1u);
    // Every key component matters.
    EXPECT_NE(cache.get(prog, 1, 64, 2, scratch), a);
    EXPECT_NE(cache.get(prog, 0, 32, 2, scratch), a);
    EXPECT_NE(cache.get(prog, 0, 64, 3, scratch), a);
    EXPECT_EQ(cache.builds(), 4u);
}

TEST(TraceCache, ConcurrentCallersShareOneBuild)
{
    const auto prog = makeParent();
    TraceCache cache;
    constexpr int kThreads = 4;
    std::vector<std::shared_ptr<const TbTrace>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            std::vector<ThreadCtx> scratch;
            got[static_cast<std::size_t>(t)] =
                cache.get(prog, 0, 256, 1, scratch);
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(cache.builds(), 1u);
    for (const auto &trace : got)
        EXPECT_EQ(trace, got[0]);
}

TEST(TraceCache, FailedBuildLeavesTheKeyBuildable)
{
    bool fail = true;
    const auto prog = std::make_shared<LambdaProgram>(
        "flaky", allocateFunctionId(), [&](ThreadCtx &c) {
            if (fail)
                throw std::runtime_error("build failed");
            c.alu(1);
        });
    TraceCache cache;
    std::vector<ThreadCtx> scratch;
    EXPECT_THROW(cache.get(prog, 0, 32, 1, scratch), std::runtime_error);
    EXPECT_EQ(cache.builds(), 0u);
    fail = false;
    const auto trace = cache.get(prog, 0, 32, 1, scratch);
    ASSERT_NE(trace, nullptr);
    ASSERT_EQ(trace->numWarps(), 1u);
    EXPECT_EQ(trace->warp(0).size(), 1u);
    EXPECT_EQ(cache.builds(), 1u);
}

TEST(TraceCache, CachedTraceMatchesFreshBuild)
{
    const auto prog = makeParent();
    TraceCache cache;
    std::vector<ThreadCtx> scratch;
    const auto cached = cache.get(prog, 1, 96, 2, scratch);
    const auto fresh = TbTrace::build(*prog, 1, 96, 2, scratch);
    ASSERT_EQ(cached->numWarps(), fresh->numWarps());
    EXPECT_EQ(cached->numThreads(), 96u);
    for (std::uint32_t w = 0; w < fresh->numWarps(); ++w) {
        const auto a = cached->warp(w);
        const auto b = fresh->warp(w);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].kind, b[i].kind);
            EXPECT_EQ(a[i].activeLanes, b[i].activeLanes);
            EXPECT_EQ(a[i].aluCycles, b[i].aluCycles);
            ASSERT_EQ(a[i].lines.size(), b[i].lines.size());
            for (std::size_t l = 0; l < a[i].lines.size(); ++l)
                EXPECT_EQ(a[i].lines[l], b[i].lines[l]);
            ASSERT_EQ(a[i].launches.size(), b[i].launches.size());
        }
    }
}

TEST(TraceCache, ChildProgramsOutliveTheRunThatLaunchedThem)
{
    const int before = CountedChild::alive.load();
    GpuConfig cfg;
    cfg.dynParModel = DynParModel::DTBL;
    const LaunchRequest wave{makeParent(), 6, 128};

    GpuStats first;
    GpuStats fresh;
    {
        TraceCache cache;
        {
            Gpu gpu(cfg, &cache);
            gpu.runWaves({wave});
            first = gpu.stats();
        }
        // The first Gpu and its kernels are gone; the cached parent
        // traces are now the child programs' only owners.
        EXPECT_EQ(CountedChild::alive.load() - before, 6);
        const std::uint64_t builds = cache.builds();
        EXPECT_EQ(builds, tbsExecuted(first));

        // A later run borrows the parent traces, launches the cached
        // child programs and finds their TBs cached too.
        cfg.tbPolicy = TbPolicy::AdaptiveBind;
        Gpu again(cfg, &cache);
        again.runWaves({wave});
        EXPECT_EQ(cache.builds(), builds);
        EXPECT_EQ(tbsExecuted(again.stats()), tbsExecuted(first));
        EXPECT_EQ(CountedChild::alive.load() - before, 6);

        Gpu priv(cfg);
        priv.runWaves({wave});
        fresh = priv.stats();
        EXPECT_EQ(again.stats().cycles, fresh.cycles);
        EXPECT_EQ(again.stats().l1Total().hits, fresh.l1Total().hits);
    }
    EXPECT_EQ(CountedChild::alive.load(), before);
}
