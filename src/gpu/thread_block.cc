#include "gpu/thread_block.hh"

#include <algorithm>

#include "common/log.hh"

namespace laperm {

void
bindThreadBlock(ThreadBlock &tb, const KernelProgram &program,
                std::uint32_t tb_index,
                std::shared_ptr<const TbTrace> trace)
{
    const std::uint32_t threads_per_tb = trace->numThreads();
    laperm_assert(threads_per_tb > 0, "empty TB");

    tb.uid = 0;
    tb.kernel = nullptr;
    tb.tbIndex = tb_index;
    tb.smx = kNoSmx;
    tb.dispatchCycle = 0;
    tb.priority = 0;
    tb.directParent = kNoTb;
    tb.isDynamic = false;
    tb.tenant = 0;
    tb.numThreads = threads_per_tb;
    tb.regs = program.regsPerThread() * threads_per_tb;
    tb.smem = program.smemPerTb();
    tb.warpsAtBarrier = 0;
    tb.warpsDone = 0;

    const std::uint32_t num_warps = trace->numWarps();
    tb.warps.resize(num_warps);
    for (std::uint32_t w = 0; w < num_warps; ++w) {
        Warp &warp = tb.warps[w];
        warp.ops = trace->warp(w);
        warp.pc = 0;
        warp.readyAt = 0;
        warp.atBarrier = false;
        warp.done = false;
        warp.loc = WarpLoc::None;
        warp.readyIx = 0;
        warp.age = 0;
        warp.lastIssue = 0;
        warp.slot = 0;
        warp.numThreads =
            std::min(kWarpSize, threads_per_tb - w * kWarpSize);
        warp.tb = &tb;
    }
    tb.trace = std::move(trace);
}

void
buildThreadBlockInto(ThreadBlock &tb, const KernelProgram &program,
                     std::uint32_t tb_index, std::uint32_t threads_per_tb,
                     std::uint32_t num_tbs,
                     std::vector<ThreadCtx> &thread_scratch)
{
    bindThreadBlock(tb, program, tb_index,
                    TbTrace::build(program, tb_index, threads_per_tb,
                                   num_tbs, thread_scratch));
}

std::unique_ptr<ThreadBlock>
buildThreadBlock(const KernelProgram &program, std::uint32_t tb_index,
                 std::uint32_t threads_per_tb, std::uint32_t num_tbs)
{
    auto tb = std::make_unique<ThreadBlock>();
    std::vector<ThreadCtx> threads;
    threads.reserve(threads_per_tb);
    buildThreadBlockInto(*tb, program, tb_index, threads_per_tb, num_tbs,
                         threads);
    return tb;
}

} // namespace laperm
