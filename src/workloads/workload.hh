/**
 * @file
 * Workload interface: a benchmark application instance (Table II) that
 * lays out its data in simulated memory, computes its functional result
 * on the CPU, and exposes the sequence of host kernel launches whose
 * threads replay the application's memory/compute/launch schedule.
 */

#ifndef LAPERM_WORKLOADS_WORKLOAD_HH
#define LAPERM_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bump_alloc.hh"
#include "kernels/isa.hh"

namespace laperm {

/** Input sizing presets. */
enum class Scale
{
    Tiny,  ///< unit tests: milliseconds of simulation
    Small, ///< bench default: seconds per simulation
    Full,  ///< closest to the paper's inputs (slow)
    Huge,  ///< sized for the big presets (p100/v100 actually loaded)
};

/** Scale name: tiny, small, full or huge; also its wire name. */
const char *toString(Scale scale);

/** Parse an exact toString() name; false leaves @p out untouched. */
bool parseScale(const std::string &name, Scale &out);

/** parseScale ignoring case (LAPERM_SCALE, bench args); fatal on error. */
Scale scaleFromString(const std::string &name);

/** Scale selected by the LAPERM_SCALE environment variable (or @p def). */
Scale scaleFromEnv(Scale def = Scale::Small);

/**
 * A benchmark application bound to one input data set.
 *
 * Lifecycle: construct, setup() once, then waves() may be replayed on
 * any number of Gpu instances (programs are const after setup). Runs
 * of one instance may share a TraceCache, since the TB traces its
 * programs emit depend on nothing else; the sweep harness and mix
 * studies free an instance together with its cache after its last run
 * (DESIGN.md §4.4).
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Application short name, e.g. "bfs". */
    virtual std::string app() const = 0;

    /** Input data set name, e.g. "citation". */
    virtual std::string input() const = 0;

    /** "app-input" identifier used by the registry and benches. */
    std::string fullName() const { return app() + "-" + input(); }

    /** Generate inputs, compute reference results, lay out memory. */
    virtual void setup(Scale scale, std::uint64_t seed) = 0;

    /**
     * Rebase the simulated address space before setup() (multi-tenant
     * runs give each tenant a disjoint slice so co-resident workloads
     * never alias in the shared caches). Calling after setup() is a
     * programming error.
     */
    virtual void setMemoryBase(Addr base) = 0;

    /**
     * Host kernel launches in order; each wave is synchronized (the
     * next host launch waits for the previous wave and all of its
     * dynamic children), matching the benchmarks' host loops.
     */
    virtual const std::vector<LaunchRequest> &waves() const = 0;

    /** Bytes of simulated device memory the workload allocated. */
    virtual std::size_t footprintBytes() const = 0;
};

/** Shared plumbing for the concrete workloads. */
class WorkloadBase : public Workload
{
  public:
    const std::vector<LaunchRequest> &waves() const override
    {
        return waves_;
    }

    void setMemoryBase(Addr base) override;

    std::size_t footprintBytes() const override
    {
        return mem_.totalBytes();
    }

  protected:
    BumpAllocator mem_;
    std::vector<LaunchRequest> waves_;
    std::uint64_t seed_ = 1;
    Scale scale_ = Scale::Small;
};

} // namespace laperm

#endif // LAPERM_WORKLOADS_WORKLOAD_HH
