#include "kernels/warp_trace.hh"

#include <algorithm>
#include <array>

#include "common/log.hh"
#include "kernels/kernel_program.hh"

namespace laperm {

namespace {

/** A warp op under construction: pool offsets instead of pointers. */
struct StagedOp
{
    std::uint32_t lineBegin = 0, lineEnd = 0;
    std::uint32_t launchBegin = 0, launchEnd = 0;
    std::uint32_t aluCycles = 0;
    std::uint16_t activeLanes = 0;
    OpKind kind = OpKind::Alu;
};

/** A launch op lane: which thread's launch list, which entry. */
struct LaunchRef
{
    std::uint32_t thread;
    std::uint32_t ix;
};

/**
 * Build-side pools, reused across builds on one thread. The final
 * trace copies them out at exact size, so its pools never carry the
 * growth slack of a build.
 */
struct Staging
{
    std::vector<StagedOp> ops;
    std::vector<Addr> lines;
    std::vector<LaunchRef> launches;
};

void
zipWarp(Staging &st, const std::vector<ThreadCtx> &threads,
        std::uint32_t first_thread, std::uint32_t count)
{
    laperm_assert(count > 0 && count <= kWarpSize,
                  "warp with %u threads", count);
    laperm_assert(first_thread + count <= threads.size(),
                  "warp range out of bounds");

    std::array<std::uint32_t, kWarpSize> pc{};

    auto remaining = [&](std::uint32_t lane) {
        return pc[lane] < threads[first_thread + lane].ops().size();
    };
    auto cur = [&](std::uint32_t lane) -> const ThreadOp & {
        return threads[first_thread + lane].ops()[pc[lane]];
    };

    for (;;) {
        // Find the leader: the first lane with ops left that is not
        // waiting at a barrier. A barrier only issues when every live
        // lane has reached it (reconvergence), so a TB-wide barrier is
        // counted exactly once per warp.
        std::uint32_t leader = count;
        std::uint32_t first_live = count;
        for (std::uint32_t l = 0; l < count; ++l) {
            if (!remaining(l))
                continue;
            if (first_live == count)
                first_live = l;
            if (cur(l).kind != OpKind::Bar) {
                leader = l;
                break;
            }
        }
        if (first_live == count)
            break;
        if (leader == count)
            leader = first_live; // all live lanes at the barrier

        StagedOp op;
        op.kind = cur(leader).kind;
        op.lineBegin = static_cast<std::uint32_t>(st.lines.size());
        op.launchBegin = static_cast<std::uint32_t>(st.launches.size());

        for (std::uint32_t l = leader; l < count; ++l) {
            if (!remaining(l) || cur(l).kind != op.kind)
                continue;
            const ThreadOp &top = cur(l);
            ++op.activeLanes;
            switch (op.kind) {
              case OpKind::Alu:
                op.aluCycles = std::max(op.aluCycles, top.aluCycles);
                break;
              case OpKind::Load:
              case OpKind::Store:
                st.lines.push_back(top.addr);
                break;
              case OpKind::Launch:
                st.launches.push_back({first_thread + l, top.launchIx});
                break;
              case OpKind::Bar:
                break;
            }
            ++pc[l];
        }

        if (op.kind == OpKind::Load || op.kind == OpKind::Store) {
            const auto begin = st.lines.begin() + op.lineBegin;
            std::sort(begin, st.lines.end());
            st.lines.erase(std::unique(begin, st.lines.end()),
                           st.lines.end());
        }
        op.lineEnd = static_cast<std::uint32_t>(st.lines.size());
        op.launchEnd = static_cast<std::uint32_t>(st.launches.size());
        st.ops.push_back(op);
    }
}

} // namespace

std::shared_ptr<const TbTrace>
TbTrace::build(const KernelProgram &program, std::uint32_t tb_index,
               std::uint32_t threads_per_tb, std::uint32_t num_tbs,
               std::vector<ThreadCtx> &thread_scratch)
{
    laperm_assert(threads_per_tb > 0, "empty TB");

    for (std::uint32_t t = 0; t < threads_per_tb; ++t) {
        if (t < thread_scratch.size())
            thread_scratch[t].reset(tb_index, t, threads_per_tb, num_tbs);
        else
            thread_scratch.emplace_back(tb_index, t, threads_per_tb,
                                        num_tbs);
        program.emitThread(thread_scratch[t]);
    }

    thread_local Staging st;
    st.ops.clear();
    st.lines.clear();
    st.launches.clear();

    auto trace = std::make_shared<TbTrace>();
    trace->numThreads_ = threads_per_tb;
    const std::uint32_t num_warps =
        (threads_per_tb + kWarpSize - 1) / kWarpSize;
    trace->warpEnd_.reserve(num_warps);
    for (std::uint32_t w = 0; w < num_warps; ++w) {
        const std::uint32_t first = w * kWarpSize;
        zipWarp(st, thread_scratch, first,
                std::min(kWarpSize, threads_per_tb - first));
        trace->warpEnd_.push_back(
            static_cast<std::uint32_t>(st.ops.size()));
    }

    // Copy the staged pools out at exact size, then point each op's
    // ranges into them (the pools never move again).
    trace->lines_.assign(st.lines.begin(), st.lines.end());
    trace->launches_.reserve(st.launches.size());
    for (const LaunchRef &ref : st.launches) {
        trace->launches_.push_back(
            thread_scratch[ref.thread].launches()[ref.ix]);
    }
    trace->ops_.reserve(st.ops.size());
    for (const StagedOp &s : st.ops) {
        WarpOp op;
        if (s.lineEnd > s.lineBegin)
            op.lines = {trace->lines_.data() + s.lineBegin,
                        s.lineEnd - s.lineBegin};
        if (s.launchEnd > s.launchBegin)
            op.launches = {trace->launches_.data() + s.launchBegin,
                           s.launchEnd - s.launchBegin};
        op.aluCycles = s.aluCycles;
        op.activeLanes = s.activeLanes;
        op.kind = s.kind;
        trace->ops_.push_back(op);
    }
    return trace;
}

} // namespace laperm
