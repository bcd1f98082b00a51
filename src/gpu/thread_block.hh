/**
 * @file
 * Runtime state of a thread block resident on an SMX, and binding of
 * its warps to the block's TbTrace.
 */

#ifndef LAPERM_GPU_THREAD_BLOCK_HH
#define LAPERM_GPU_THREAD_BLOCK_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "gpu/warp.hh"
#include "kernels/kernel_program.hh"
#include "kernels/thread_ctx.hh"
#include "kernels/warp_trace.hh"

namespace laperm {

struct KernelInstance;

/** A resident thread block. */
class ThreadBlock
{
  public:
    TbUid uid = 0;
    KernelInstance *kernel = nullptr;
    /** blockIdx within its launch (CDP grid / DTBL group / host grid). */
    std::uint32_t tbIndex = 0;
    SmxId smx = kNoSmx;
    Cycle dispatchCycle = 0;

    /** Scheduling priority inherited from the dispatch unit. */
    std::uint32_t priority = 0;
    /** Direct parent TB (kNoTb for host-launched kernels). */
    TbUid directParent = kNoTb;
    /** True for dynamically launched (child) TBs. */
    bool isDynamic = false;
    /** Owning tenant stream, inherited from the dispatch unit. */
    std::uint32_t tenant = 0;

    std::uint32_t numThreads = 0;
    std::uint32_t regs = 0; ///< registers reserved on the SMX
    std::uint32_t smem = 0; ///< shared memory reserved on the SMX

    /** The instruction streams the warps view; shared, read-only. */
    std::shared_ptr<const TbTrace> trace;
    std::vector<Warp> warps;
    std::uint32_t warpsAtBarrier = 0;
    std::uint32_t warpsDone = 0;

    bool allWarpsDone() const { return warpsDone == warps.size(); }
};

/**
 * (Re)initialize @p tb — typically a recycled block from an SMX arena —
 * as TB @p tb_index of a launch of @p program whose instruction
 * streams are @p trace. Every ThreadBlock and Warp field is reset, so a
 * recycled block is indistinguishable from a freshly allocated one.
 * This is the one way a TB gets its warps; Gpu::dispatchTb passes a
 * trace borrowed from its TraceCache, or one built for this dispatch.
 */
void bindThreadBlock(ThreadBlock &tb, const KernelProgram &program,
                     std::uint32_t tb_index,
                     std::shared_ptr<const TbTrace> trace);

/**
 * Bind @p tb to a freshly built, unshared trace of TB @p tb_index
 * (blockIdx) of a launch of @p num_tbs TBs (gridDim), emitting its
 * threads into the caller-provided @p thread_scratch contexts.
 */
void buildThreadBlockInto(ThreadBlock &tb, const KernelProgram &program,
                          std::uint32_t tb_index,
                          std::uint32_t threads_per_tb,
                          std::uint32_t num_tbs,
                          std::vector<ThreadCtx> &thread_scratch);

/** As buildThreadBlockInto, into a newly allocated block. */
std::unique_ptr<ThreadBlock> buildThreadBlock(
    const KernelProgram &program, std::uint32_t tb_index,
    std::uint32_t threads_per_tb, std::uint32_t num_tbs);

} // namespace laperm

#endif // LAPERM_GPU_THREAD_BLOCK_HH
