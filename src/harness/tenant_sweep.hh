/**
 * @file
 * Multi-tenant contention sweep: mix x hardware preset x TB policy,
 * one MixStudy (shared run + solo baselines, src/tenant/) per cell.
 * Like the single-app sweep (harness/experiment.hh) it executes cells
 * on a thread pool with preassigned result slots and caches per
 * (mix, preset, seed) TSVs under the shared fingerprint-gated cache,
 * so bench_multitenant and the EXPERIMENTS.md contention study share
 * one set of simulations.
 */

#ifndef LAPERM_HARNESS_TENANT_SWEEP_HH
#define LAPERM_HARNESS_TENANT_SWEEP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "tenant/metrics.hh"

namespace laperm {

namespace tenant {
struct MixStudy;
} // namespace tenant

/**
 * One tenant of one (mix, preset, policy) cell. Mix-level metrics
 * (ANTT mean, STP, Jain, makespan) repeat on every row of the cell so
 * each row is self-contained for plotting.
 */
struct TenantSweepRow
{
    std::string mix;
    std::string preset = "k20c";
    TbPolicy policy = TbPolicy::RR;
    std::string tenant;        ///< stream name within the mix
    std::uint32_t tenantId = 0;
    std::uint32_t jobs = 0;
    double antt = 0.0;         ///< per-tenant normalized turnaround
    std::uint64_t p50 = 0;     ///< wave-latency percentiles, cycles
    std::uint64_t p95 = 0;
    std::uint64_t p99 = 0;
    std::uint64_t retiredTbs = 0;
    double mixAntt = 0.0;
    double mixStp = 0.0;
    double mixJain = 0.0;
    std::uint64_t makespan = 0;
};

/**
 * The rows of one cell: one per tenant of @p study, in tenant order,
 * labeled with @p mix, @p preset and @p policy. laperm_sim
 * --tenants-tsv, a served mix request and the sweep all build their
 * rows here.
 */
std::vector<TenantSweepRow> tenantSweepRows(const std::string &mix,
                                            const std::string &preset,
                                            TbPolicy policy,
                                            const tenant::MixStudy &study);

/** Serialize rows (header comment + one row per tenant, %.17g doubles). */
std::string encodeTenantSweepTsv(const std::vector<TenantSweepRow> &rows);

/**
 * Parse encodeTenantSweepTsv output. False on a malformed row: a field
 * count other than 15, an unknown policy index, a count that is not an
 * in-range unsigned integer, or a ratio that is not a finite double.
 */
bool decodeTenantSweepTsv(const std::string &tsv,
                          std::vector<TenantSweepRow> &out);

/**
 * Cache file for one (mix, preset, seed) cell group:
 * "$LAPERM_CACHE_DIR/laperm_tenants_<mix>_<preset>_<seed>.tsv". The
 * group holds all four TB policies for that mix/preset.
 */
std::string tenantSweepCachePath(const std::string &mix,
                                 const std::string &preset,
                                 std::uint64_t seed);

/**
 * Run every builtin mix in @p mixes on every preset in @p presets under
 * all four TB policies (the dynamic-parallelism model stays the device
 * default). Rows come back grouped by (mix, preset) in argument order,
 * then policy in enum order, then tenant id — byte-identical at any
 * worker count.
 *
 * @param use_cache per-(mix, preset) TSV cache, fingerprint-gated like
 *        the single-app sweep; disable with LAPERM_NO_CACHE=1.
 * @param jobs worker threads; 0 selects LAPERM_JOBS, falling back to
 *        hardware_concurrency().
 */
std::vector<TenantSweepRow> runTenantSweep(
    const std::vector<std::string> &mixes,
    const std::vector<std::string> &presets, std::uint64_t seed,
    bool use_cache = true, unsigned jobs = 0);

} // namespace laperm

#endif // LAPERM_HARNESS_TENANT_SWEEP_HH
