/**
 * @file
 * The top-level device: wires the memory system, SMXs, KDU, KMU,
 * launcher and the selected TB scheduler into a cycle-driven simulator.
 */

#ifndef LAPERM_GPU_GPU_HH
#define LAPERM_GPU_GPU_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "dynpar/launcher.hh"
#include "gpu/kdu.hh"
#include "gpu/smx.hh"
#include "kernels/thread_ctx.hh"
#include "kernels/trace_cache.hh"
#include "mem/mem_system.hh"
#include "sim/observer.hh"
#include "sched/tb_scheduler.hh"
#include "sim/config.hh"
#include "sim/stats.hh"

namespace laperm {

/**
 * A simulated GPU. Usage:
 *
 *     Gpu gpu(cfg);                // or Gpu gpu(cfg, &shared_traces);
 *     gpu.launchHostKernel(wave0);
 *     gpu.runToIdle();
 *     gpu.launchHostKernel(wave1);  // next host wave
 *     gpu.runToIdle();
 *     const GpuStats &s = gpu.stats();
 */
class Gpu : public SmxCallbacks, public DispatchContext
{
  public:
    /**
     * @param traces where dispatched TBs borrow their traces from;
     *        several Gpus running the same workload instance may share
     *        one cache (it must outlive them). With null, each dispatch
     *        builds its TB's trace and the TB drops it at completion:
     *        one run dispatches each TB once, so a cache private to
     *        one Gpu would only hold memory.
     */
    explicit Gpu(const GpuConfig &cfg, TraceCache *traces = nullptr);
    ~Gpu() override;

    Gpu(const Gpu &) = delete;
    Gpu &operator=(const Gpu &) = delete;

    /** Enqueue a host kernel (models a <<<>>> launch + its grid). */
    void launchHostKernel(const LaunchRequest &req);

    /**
     * Run until all launched work — including dynamically spawned
     * kernels/TB groups — has drained.
     */
    void runToIdle(Cycle max_cycles = Cycle(1) << 36);

    /**
     * Run until the device is idle or the clock reaches @p stop,
     * whichever comes first (time-sliced execution for the multi-tenant
     * manager; kNoCycle runs to idle). The next slice starts with a
     * front-end visit at the boundary, which an unsliced run may skip.
     * Slicing is therefore timing-transparent only for policies whose
     * failed dispatch probes are side-effect-free (RR, TB-Pri); a
     * failed SMX-Bind or Adaptive-Bind probe rotates the cursor or
     * adopts a backup queue, so their results depend on the slices.
     */
    void runUntil(Cycle stop, Cycle max_cycles = Cycle(1) << 36);

    /** Jump an idle device forward to @p cycle (the open-loop arrival gap). */
    void advanceTo(Cycle cycle);

    /** Whether all launched work has drained. */
    bool isIdle() const { return idle(); }

    /** Threads resident across all SMXs (the occupancy numerator). */
    std::uint64_t residentThreads() const;

    /**
     * Install (or clear, with nullptr) the tenant dispatch gate. The
     * gate must outlive the run; flips are only legal between run
     * slices, followed by noteDispatchGateChanged().
     */
    void setDispatchGate(const DispatchGate *gate) { gate_ = gate; }

    /**
     * A gate flip may have made a previously blocked unit dispatchable;
     * memoized schedulers must drop their failed-scan memo.
     */
    void noteDispatchGateChanged() { sched_->noteCapacityFreed(); }

    /** Convenience: launch each wave and drain it before the next. */
    void runWaves(const std::vector<LaunchRequest> &waves);

    /** Finalized statistics (also flushes cache/SMX counters). */
    const GpuStats &stats();

    Cycle now() const { return cycle_; }
    const GpuConfig &config() const { return cfg_; }
    const MemSystem &mem() const { return mem_; }
    const Kdu &kdu() const { return kdu_; }

    /** TBs dispatched and not yet finished. */
    std::uint64_t activeTbs() const { return activeTbs_; }
    /** TBs visible to the scheduler but not yet dispatched. */
    std::uint64_t undispatchedTbs() const { return undispatchedTbs_; }

    /**
     * Optional dispatch probe for tests/visualization. Any number of
     * hooks may be attached; they are invoked in attachment order on
     * every TB dispatch.
     */
    using DispatchHook = void (*)(void *ctx, const ThreadBlock &tb);
    void addDispatchHook(DispatchHook hook, void *ctx);

    /** Attach-point for structured observers (DESIGN.md §8). */
    obs::ObserverHub &observers() override { return hub_; }

    /**
     * Attach locality-attribution counters; the memory system reports
     * every L1/L2 access to it. Pass nullptr to detach. The tracker
     * must outlive the run.
     */
    void setLocalityTracker(obs::MemObserver *tracker);

    // --- DispatchContext ---
    std::uint32_t numSmx() const override { return cfg_.numSmx; }
    bool fits(SmxId smx, const DispatchUnit &unit) const override;
    void dispatchTb(DispatchUnit &unit, SmxId smx, Cycle now) override;
    GpuStats &mutableStats() override { return stats_; }
    const DispatchGate *gate() const override { return gate_; }

    // --- SmxCallbacks ---
    void deviceLaunch(const LaunchRequest &req, const ThreadBlock &parent,
                      Cycle now) override;
    void tbCompleted(ThreadBlock &tb, Cycle now) override;
    void dispatchCapacityFreed() override;

  private:
    void tick();
    bool idle() const;
    void noteSmxBusy(SmxId id);

    GpuConfig cfg_;
    MemSystem mem_;
    Kdu kdu_;
    std::unique_ptr<TbScheduler> sched_;
    std::unique_ptr<Launcher> launcher_;
    std::vector<std::unique_ptr<Smx>> smxs_;

    /**
     * SMXs with resident TBs, ascending. Only these are ticked and
     * scanned for the next event; most SMXs idle through the tail of a
     * wave, so this keeps the per-cycle cost proportional to live work.
     * Kept sorted so tick order matches the full 0..N-1 scan exactly.
     */
    std::vector<SmxId> activeSmxs_;
    std::vector<bool> smxActive_;
    /**
     * Per-SMX wake cycle: the earliest cycle at which ticking the SMX
     * can do anything (Smx::nextEventAt after its last tick, or the
     * dispatch cycle of a new TB). Only active SMXs' entries are live.
     */
    std::vector<Cycle> smxWakeAt_;

    /** Amortized MSHR garbage collection (see tick()). */
    Cycle nextMshrTrimAt_ = 0;

    /** Shared trace cache, or null to build each TB's trace at dispatch. */
    TraceCache *traces_;
    /** Per-thread contexts for the trace builds this Gpu performs. */
    std::vector<ThreadCtx> ctxScratch_;

    GpuStats stats_;
    Cycle cycle_ = 0;
    TbUid nextTbUid_ = 0;
    std::uint64_t undispatchedTbs_ = 0;
    std::uint64_t activeTbs_ = 0;
    std::uint64_t issuedInstSnapshot_ = 0;

    std::vector<std::pair<DispatchHook, void *>> dispatchHooks_;
    obs::ObserverHub hub_;
    const DispatchGate *gate_ = nullptr;
};

} // namespace laperm

#endif // LAPERM_GPU_GPU_HH
