/**
 * @file
 * Base class for kernel programs: the simulator-facing equivalent of a
 * compiled CUDA kernel function.
 */

#ifndef LAPERM_KERNELS_KERNEL_PROGRAM_HH
#define LAPERM_KERNELS_KERNEL_PROGRAM_HH

#include <cstdint>
#include <string>

#include "kernels/isa.hh"

namespace laperm {

class ThreadCtx;

/**
 * A kernel function. Workloads subclass this once per kernel; instances
 * may carry per-launch parameters (the equivalent of kernel arguments),
 * while functionId() identifies the underlying function for DTBL
 * configuration matching.
 */
class KernelProgram
{
  public:
    virtual ~KernelProgram() = default;

    /** Human-readable kernel name. */
    virtual std::string name() const = 0;

    /**
     * Identity of the kernel *function* (not the launch). DTBL coalesces
     * TB groups onto KDU kernels with equal functionId and TB size.
     */
    virtual std::uint32_t functionId() const = 0;

    /** Registers per thread (occupancy limiter). */
    virtual std::uint32_t regsPerThread() const { return 32; }

    /** Shared memory per TB in bytes (occupancy limiter). */
    virtual std::uint32_t smemPerTb() const { return 0; }

    /**
     * Emit the op trace of one thread into @p ctx. Must be deterministic
     * and const: the same (tbIndex, threadIndex, threadsPerTb, numTbs)
     * always produces the same trace, whatever the model, policy or
     * machine. That makes a TB's trace a pure function of its launch,
     * so it is built once and shared by every run of the workload
     * instance (kernels/trace_cache.hh, DESIGN.md §4.4).
     */
    virtual void emitThread(ThreadCtx &ctx) const = 0;
};

/** Process-wide unique function-id source for workload kernels. */
std::uint32_t allocateFunctionId();

} // namespace laperm

#endif // LAPERM_KERNELS_KERNEL_PROGRAM_HH
