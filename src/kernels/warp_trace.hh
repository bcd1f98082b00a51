/**
 * @file
 * SIMT front end: zips the per-thread op traces of one thread block
 * into warp instructions with kind-grouped lockstep (divergent op kinds
 * serialize) and coalesces memory ops into unique 128-byte line
 * transactions. The result is an immutable TbTrace whose warp streams
 * live in flat per-TB pools (DESIGN.md §4.4).
 */

#ifndef LAPERM_KERNELS_WARP_TRACE_HH
#define LAPERM_KERNELS_WARP_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "kernels/isa.hh"
#include "kernels/thread_ctx.hh"

namespace laperm {

class KernelProgram;

/** One warp instruction; its ranges are views into its TbTrace's pools. */
struct WarpOp
{
    /** Load/Store: coalesced unique lines. */
    std::span<const Addr> lines;
    /** Launch: one request per active lane. */
    std::span<const LaunchRequest> launches;
    std::uint32_t aluCycles = 0;   ///< Alu: max over active lanes
    std::uint16_t activeLanes = 0; ///< threads participating
    OpKind kind = OpKind::Alu;
};

/**
 * The warp instruction streams of one thread block. A trace is a pure
 * function of (program, tbIndex, threadsPerTb, numTbs): it never
 * depends on the dynamic-parallelism model, the TB policy or the
 * machine, so one trace may be borrowed by any number of runs
 * (kernels/trace_cache.hh). Ops, lines and launch requests each sit in
 * one exactly-sized pool per TB; the trace owns its child launch
 * requests, and with them the child programs they point to.
 */
class TbTrace
{
  public:
    /**
     * Emit every thread of TB @p tb_index into @p thread_scratch (its
     * contexts are reused) and zip them into warps.
     *
     * At each step of a warp the earliest thread with remaining ops
     * leads; all threads whose next op has the same kind execute
     * together (the active mask); other kinds execute in later steps —
     * a simple serialization model of SIMT branch divergence.
     */
    static std::shared_ptr<const TbTrace> build(
        const KernelProgram &program, std::uint32_t tb_index,
        std::uint32_t threads_per_tb, std::uint32_t num_tbs,
        std::vector<ThreadCtx> &thread_scratch);

    /** An empty trace (no warps); build() is the way to fill one. */
    TbTrace() = default;
    /** Not copyable: the ops' spans point into this object's pools. */
    TbTrace(const TbTrace &) = delete;
    TbTrace &operator=(const TbTrace &) = delete;

    std::uint32_t numThreads() const { return numThreads_; }

    std::uint32_t numWarps() const
    {
        return static_cast<std::uint32_t>(warpEnd_.size());
    }

    /** Instruction stream of warp @p w. */
    std::span<const WarpOp> warp(std::uint32_t w) const
    {
        const std::uint32_t begin = w == 0 ? 0 : warpEnd_[w - 1];
        if (begin == warpEnd_[w])
            return {};
        return {ops_.data() + begin, warpEnd_[w] - begin};
    }

  private:
    std::vector<WarpOp> ops_;
    std::vector<Addr> lines_;
    std::vector<LaunchRequest> launches_;
    /** One past the last op of each warp, in warp order. */
    std::vector<std::uint32_t> warpEnd_;
    std::uint32_t numThreads_ = 0;
};

} // namespace laperm

#endif // LAPERM_KERNELS_WARP_TRACE_HH
