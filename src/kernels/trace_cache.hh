/**
 * @file
 * Build-once store of thread-block traces. A TbTrace is a pure function
 * of (program, tbIndex, threadsPerTb, numTbs), so every run that
 * dispatches the same TB of the same launch tree can borrow one shared,
 * immutable copy instead of rebuilding it (DESIGN.md §4.4).
 */

#ifndef LAPERM_KERNELS_TRACE_CACHE_HH
#define LAPERM_KERNELS_TRACE_CACHE_HH

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "kernels/kernel_program.hh"
#include "kernels/warp_trace.hh"

namespace laperm {

/**
 * Thread-safe map from a TB's identity to its trace. The first caller
 * for a key builds the trace; concurrent callers for the same key wait
 * for that build instead of repeating it. Entries keep their program
 * alive, so a key can never be confused with a later program allocated
 * at the same address, and cached traces own their child launch
 * requests, so child TBs hit the cache on every later run too.
 * Entries live until the cache is destroyed.
 */
class TraceCache
{
  public:
    /**
     * The trace of TB @p tb_index of a launch of @p program
     * (@p num_tbs TBs of @p threads_per_tb threads), built on first
     * request. A build emits threads into @p thread_scratch.
     */
    std::shared_ptr<const TbTrace> get(
        const std::shared_ptr<const KernelProgram> &program,
        std::uint32_t tb_index, std::uint32_t threads_per_tb,
        std::uint32_t num_tbs, std::vector<ThreadCtx> &thread_scratch);

    /** Traces built so far (each key is built exactly once). */
    std::uint64_t builds() const;

  private:
    struct Key
    {
        const KernelProgram *program;
        std::uint32_t tbIndex;
        std::uint32_t threadsPerTb;
        std::uint32_t numTbs;

        bool operator==(const Key &) const = default;
    };

    struct KeyHash
    {
        std::size_t operator()(const Key &k) const;
    };

    struct Entry
    {
        std::shared_ptr<const KernelProgram> program;
        /** Null while the first caller is still building it. */
        std::shared_ptr<const TbTrace> trace;
    };

    mutable std::mutex mu_;
    std::condition_variable built_;
    std::unordered_map<Key, Entry, KeyHash> entries_;
    std::uint64_t builds_ = 0;
};

} // namespace laperm

#endif // LAPERM_KERNELS_TRACE_CACHE_HH
