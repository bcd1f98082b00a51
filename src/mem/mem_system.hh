/**
 * @file
 * The full memory hierarchy: per-SMX-cluster L1s, a shared banked L2,
 * and DRAM. Exposes analytic load/store completion-cycle queries used
 * by the SMX load/store units.
 */

#ifndef LAPERM_MEM_MEM_SYSTEM_HH
#define LAPERM_MEM_MEM_SYSTEM_HH

#include <memory>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/fast_mod.hh"
#include "sim/config.hh"
#include "sim/observer.hh"

namespace laperm {

/**
 * Memory hierarchy per Figure 1 of the paper: L1/shared-memory per SMX,
 * L2 shared across SMXs, memory controllers to DRAM.
 */
class MemSystem
{
  public:
    explicit MemSystem(const GpuConfig &cfg);

    /**
     * Issue a coalesced 128B load from @p smx at @p now.
     * @param who optional accessor identity for locality attribution;
     *   ignored unless a tracker is attached.
     * @return cycle at which the requesting warp can proceed.
     */
    Cycle load(SmxId smx, Addr line, Cycle now,
               const obs::MemAccessor *who = nullptr);

    /**
     * Issue a coalesced 128B store from @p smx at @p now. Stores are
     * fire-and-forget for the warp but consume L2/DRAM bandwidth.
     * @return completion cycle (for memory-fence modeling/tests).
     */
    Cycle store(SmxId smx, Addr line, Cycle now,
                const obs::MemAccessor *who = nullptr);

    /**
     * Attach a per-access observer (nullptr to detach). Pure
     * observation: timing is unaffected. The observer must expect
     * numL1() L1 instances and outlive this object.
     */
    void setLocalityTracker(obs::MemObserver *tracker) { loc_ = tracker; }

    void reset();

    /**
     * Drop dead MSHR records in every cache. @p safe_now must
     * lower-bound all future load/store timestamps; the Gpu calls this
     * with its clock on an amortized interval.
     */
    void trimMshrs(Cycle safe_now);

    const Cache &l1(SmxId smx) const { return *l1s_[l1Index(smx)]; }
    const Cache &l2() const { return *l2_; }
    const Dram &dram() const { return dram_.value(); }

    std::uint32_t numL1() const
    {
        return static_cast<std::uint32_t>(l1s_.size());
    }

    /** Copy cache/DRAM counters into @p stats. */
    void exportStats(struct GpuStats &stats) const;

  private:
    std::uint32_t l1Index(SmxId smx) const
    {
        return smx / cfg_.smxPerCluster;
    }

    /** L2 access shared by loads and stores; returns data-ready cycle. */
    Cycle l2Access(Addr line, Cycle now, bool is_store,
                   const obs::MemAccessor *who);

    GpuConfig cfg_;
    std::vector<std::unique_ptr<Cache>> l1s_;
    std::unique_ptr<Cache> l2_;
    std::optional<Dram> dram_;
    std::vector<Cycle> l2BankFreeAt_;
    FastMod l2BankMod_; ///< line number -> L2 bank
    obs::MemObserver *loc_ = nullptr;
};

} // namespace laperm

#endif // LAPERM_MEM_MEM_SYSTEM_HH
