/**
 * @file
 * Pointer-chase latency microbenchmark (not part of Table II).
 */

#ifndef LAPERM_WORKLOADS_CHASE_HH
#define LAPERM_WORKLOADS_CHASE_HH

#include "workloads/workload.hh"

namespace laperm {

/**
 * A memory-latency stress: each thread walks a private random
 * permutation ring in device memory, one dependent cache-hostile load
 * per step, with a short ALU op between steps so loads cannot overlap
 * in the warp's MLP window. Occupancy is deliberately minimal (one
 * single-thread warp per TB, two TBs per SMX), so SMXs spend almost
 * every cycle stalled on DRAM — the adversarial case for a polling
 * simulator loop and the showcase for per-SMX wake cycles
 * (DESIGN.md §11). Excluded from the Table II sweep list; create it
 * by name ("chase-ring") for scheduler/core benchmarks and tests.
 */
class ChaseWorkload : public WorkloadBase
{
  public:
    explicit ChaseWorkload(std::string input) : input_(std::move(input)) {}

    std::string app() const override { return "chase"; }
    std::string input() const override { return input_; }
    void setup(Scale scale, std::uint64_t seed) override;

  private:
    std::string input_;
};

} // namespace laperm

#endif // LAPERM_WORKLOADS_CHASE_HH
