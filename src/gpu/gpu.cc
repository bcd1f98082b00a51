#include "gpu/gpu.hh"

#include <algorithm>

#include "common/log.hh"

namespace laperm {

Gpu::Gpu(const GpuConfig &cfg, TraceCache *traces)
    : cfg_(cfg), mem_(cfg), kdu_(cfg.kduEntries), traces_(traces)
{
    cfg_.validate();
    sched_ = TbScheduler::create(cfg_, *this);
    launcher_ = std::make_unique<Launcher>(cfg_, kdu_, *sched_, stats_,
                                           undispatchedTbs_, hub_);
    for (SmxId i = 0; i < cfg_.numSmx; ++i)
        smxs_.push_back(std::make_unique<Smx>(i, cfg_, mem_, *this));
    stats_.smx.resize(cfg_.numSmx);
    activeSmxs_.reserve(cfg_.numSmx);
    smxActive_.assign(cfg_.numSmx, false);
    smxWakeAt_.assign(cfg_.numSmx, kNoCycle);
}

Gpu::~Gpu() = default;

void
Gpu::addDispatchHook(DispatchHook hook, void *ctx)
{
    dispatchHooks_.emplace_back(hook, ctx);
}

void
Gpu::setLocalityTracker(obs::MemObserver *tracker)
{
    mem_.setLocalityTracker(tracker);
}

void
Gpu::launchHostKernel(const LaunchRequest &req)
{
    launcher_->hostLaunch(req, cycle_);
}

bool
Gpu::idle() const
{
    return undispatchedTbs_ == 0 && activeTbs_ == 0 && launcher_->idle();
}

void
Gpu::noteSmxBusy(SmxId id)
{
    if (smxActive_[id])
        return;
    smxActive_[id] = true;
    activeSmxs_.insert(
        std::lower_bound(activeSmxs_.begin(), activeSmxs_.end(), id),
        id);
}

void
Gpu::tick()
{
    bool launched = launcher_->tick(cycle_);
    bool dispatched = sched_->dispatchOne(cycle_);
    bool progress = launched || dispatched;

    // Tick only SMXs with resident TBs (ticking a drained SMX is a
    // no-op) whose wake cycle has come: before it, no warp is eligible
    // and a tick would change nothing. Compact SMXs that drained this
    // cycle. dispatchOne above is the only way an SMX gains work (it
    // resets the wake to now), so the list is stable during this loop.
    std::size_t out = 0;
    for (std::size_t i = 0; i < activeSmxs_.size(); ++i) {
        const SmxId id = activeSmxs_[i];
        if (smxWakeAt_[id] > cycle_) {
            activeSmxs_[out++] = id;
            continue;
        }
        Smx &smx = *smxs_[id];
        progress |= smx.tick(cycle_);
        if (smx.drained()) {
            smxActive_[id] = false;
        } else {
            smxWakeAt_[id] = smx.nextEventAt(cycle_ + 1);
            activeSmxs_[out++] = id;
        }
    }
    activeSmxs_.resize(out);

    // Periodically drop MSHR entries no cache client can merge with
    // anymore. cycle_ lower-bounds every future access timestamp (LSU
    // issue and downstream latencies only add to it), so trimming at
    // the device clock is invisible to the timing model — unlike
    // trimming at access time, where out-of-order L2 timestamps would
    // turn some merges into misses.
    if (cycle_ >= nextMshrTrimAt_) {
        mem_.trimMshrs(cycle_);
        nextMshrTrimAt_ = cycle_ + cfg_.mshrTrimInterval;
    }

    if (progress) {
        ++cycle_;
        return;
    }

    // Nothing happened: jump to the next event (warp wakeup, launch
    // readiness, or an overflow-fetch completion).
    Cycle next = kNoCycle;
    for (SmxId id : activeSmxs_)
        next = std::min(next, smxWakeAt_[id]);
    next = std::min(next, launcher_->nextReadyAt(cycle_));
    next = std::min(next, sched_->nextReadyAt(cycle_));
    if (next == kNoCycle || next <= cycle_)
        ++cycle_;
    else
        cycle_ = next;
}

void
Gpu::runToIdle(Cycle max_cycles)
{
    runUntil(kNoCycle, max_cycles);
}

void
Gpu::runUntil(Cycle stop, Cycle max_cycles)
{
    const Cycle start = cycle_;
    while (!idle() && cycle_ < stop) {
        tick();
        if (cycle_ - start > max_cycles) {
            laperm_panic("simulation exceeded %llu cycles "
                         "(undispatched=%llu active=%llu pending=%zu)",
                         static_cast<unsigned long long>(max_cycles),
                         static_cast<unsigned long long>(undispatchedTbs_),
                         static_cast<unsigned long long>(activeTbs_),
                         launcher_->kmu().size());
        }
    }
    // A no-progress jump may have overshot the slice boundary; the gap
    // it skipped is eventless, so resuming at stop is timing-neutral
    // (the next slice recomputes the very same jump).
    if (cycle_ > stop)
        cycle_ = stop;
}

void
Gpu::advanceTo(Cycle cycle)
{
    laperm_assert(idle(), "advanceTo with live work");
    laperm_assert(cycle >= cycle_, "advanceTo moving backwards");
    cycle_ = cycle;
}

std::uint64_t
Gpu::residentThreads() const
{
    std::uint64_t total = 0;
    for (SmxId id : activeSmxs_)
        total += smxs_[id]->threadsUsed();
    return total;
}

void
Gpu::runWaves(const std::vector<LaunchRequest> &waves)
{
    for (const LaunchRequest &wave : waves) {
        launchHostKernel(wave);
        runToIdle();
    }
}

const GpuStats &
Gpu::stats()
{
    stats_.cycles = cycle_;
    for (SmxId i = 0; i < cfg_.numSmx; ++i)
        stats_.smx[i] = smxs_[i]->stats();
    mem_.exportStats(stats_);
    return stats_;
}

bool
Gpu::fits(SmxId smx, const DispatchUnit &unit) const
{
    return smxs_[smx]->canAccommodate(unit.threadsPerTb, unit.regsPerTb,
                                      unit.smemPerTb);
}

void
Gpu::dispatchTb(DispatchUnit &unit, SmxId smx, Cycle now)
{
    laperm_assert(!unit.exhausted(), "dispatching an exhausted unit");
    const std::uint32_t ix = unit.nextTb++;

    ThreadBlock *tb = smxs_[smx]->acquireTb();
    bindThreadBlock(
        *tb, *unit.program, ix,
        traces_ ? traces_->get(unit.program, ix, unit.threadsPerTb,
                               unit.count, ctxScratch_)
                : TbTrace::build(*unit.program, ix, unit.threadsPerTb,
                                 unit.count, ctxScratch_));
    tb->uid = nextTbUid_++;
    tb->kernel = unit.kernel;
    tb->priority = unit.priority;
    tb->directParent = unit.directParent;
    tb->isDynamic = unit.directParent != kNoTb;
    tb->tenant = unit.tenant;

    ++unit.kernel->dispatchedTbs;
    laperm_assert(undispatchedTbs_ > 0, "undispatched TB underflow");
    --undispatchedTbs_;
    ++activeTbs_;

    tb->smx = smx;
    tb->dispatchCycle = now;
    for (const auto &[hook, ctx] : dispatchHooks_)
        hook(ctx, *tb);
    if (hub_.enabled()) {
        hub_.tbDispatch({now, tb->uid, tb->kernel->id, tb->tbIndex, smx,
                         tb->priority, tb->isDynamic, tb->directParent,
                         now, tb->tenant});
    }
    smxs_[smx]->acceptTb(tb, now);
    // A TB whose warps are all empty completes inside acceptTb; only
    // track the SMX while it actually holds work.
    if (!smxs_[smx]->drained()) {
        noteSmxBusy(smx);
        // Same-cycle hand-off: the SMX loop of this very cycle, which
        // runs after dispatch, must tick the new TB.
        smxWakeAt_[smx] = now;
    }
}

void
Gpu::deviceLaunch(const LaunchRequest &req, const ThreadBlock &parent,
                  Cycle now)
{
    if (req.threadsPerTb > cfg_.maxThreadsPerSmx)
        laperm_fatal("device launch TB of %u threads exceeds SMX limit",
                     req.threadsPerTb);
    launcher_->deviceLaunch(req, parent, now);
}

void
Gpu::tbCompleted(ThreadBlock &tb, Cycle now)
{
    if (hub_.enabled()) {
        hub_.tbRetire({now, tb.uid, tb.kernel->id, tb.tbIndex, tb.smx,
                       tb.priority, tb.isDynamic, tb.directParent,
                       tb.dispatchCycle, tb.tenant});
    }
    kdu_.tbFinished(tb.kernel);
    laperm_assert(activeTbs_ > 0, "active TB underflow");
    --activeTbs_;
    // The SMX just freed this TB's resources; a memoized scheduler
    // must retry its dispatch scan.
    sched_->noteCapacityFreed();
}

void
Gpu::dispatchCapacityFreed()
{
    sched_->noteCapacityFreed();
}

} // namespace laperm
