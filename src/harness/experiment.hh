/**
 * @file
 * Experiment driver: runs workload x model x policy configurations on
 * the Table I device and collects the metrics the paper plots. Results
 * are cached on disk (per scale/seed) so the per-figure bench binaries
 * can share one simulation sweep.
 */

#ifndef LAPERM_HARNESS_EXPERIMENT_HH
#define LAPERM_HARNESS_EXPERIMENT_HH

#include <string>
#include <vector>

#include "harness/result_cache.hh"
#include "kernels/trace_cache.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "workloads/workload.hh"

namespace laperm {

/** The Table I configuration (K20c / GK110). */
GpuConfig paperConfig();

/** Metrics of one simulation run. */
struct RunResult
{
    std::string workload;
    DynParModel model = DynParModel::CDP;
    TbPolicy policy = TbPolicy::RR;
    /** Hardware preset the cell ran on (sim/presets.hh). */
    std::string preset = "k20c";

    double ipc = 0.0;
    double l1HitRate = 0.0;
    double l2HitRate = 0.0;
    double cycles = 0.0;
    double smxUtilization = 0.0;
    double smxImbalance = 0.0;
    double boundFraction = 0.0; ///< bound / dynamic TB dispatches
    double queueOverflows = 0.0;
    double kduFullStalls = 0.0;
};

/** Run one configuration (workload must be set up). */
RunResult runOne(const Workload &workload, const GpuConfig &cfg,
                 TraceCache *traces = nullptr);

/**
 * Run one configuration and return the full canonical record (every
 * counter the CSV report and sweep TSV derive from). When @p trace_dir
 * is non-empty, the observability artifacts of DESIGN.md §8 are
 * written there under "<workload>_<model>_<policy>.*". This is the
 * execution path the serving subsystem (src/serve) uses; runOne is a
 * thin wrapper that honors LAPERM_TRACE_DIR instead.
 *
 * @param traces TB traces of this workload instance shared with other
 *        runs of it (DESIGN.md §4.4); null builds traces for this
 *        run only.
 */
ResultRecord runOneRecord(const Workload &workload, const GpuConfig &cfg,
                          const std::string &trace_dir,
                          TraceCache *traces = nullptr);

/**
 * Full sweep: every workload in @p names under every model x policy.
 *
 * Cells are independent simulations and execute on a thread pool, one
 * job per cell; results (and the TSV cache) are emitted in the same
 * deterministic order regardless of worker count. A workload's 8 cells
 * share one TraceCache, so each TB trace is built once per workload;
 * the workload and its traces are freed when its last cell ends.
 *
 * @param use_cache read/write "laperm_results_<scale>_<seed>.tsv"
 *        under the cache directory — $LAPERM_CACHE_DIR, default
 *        "cache/" in the working directory — so the figure benches
 *        share one sweep (disable with LAPERM_NO_CACHE=1). Entries
 *        embed the simulator fingerprint (harness/result_cache.hh);
 *        a TSV written by a different simulator build is ignored and
 *        regenerated rather than served stale.
 * @param jobs worker threads; 0 selects LAPERM_JOBS from the
 *        environment, falling back to hardware_concurrency().
 */
std::vector<RunResult> runMatrix(const std::vector<std::string> &names,
                                 Scale scale, std::uint64_t seed,
                                 bool use_cache = true,
                                 unsigned jobs = 0);

/**
 * runMatrix on a named hardware preset (sim/presets.hh): the preset is
 * a fourth sweep axis with its own TSV cache cell per (preset, scale,
 * seed). "k20c" is exactly runMatrix — same cache file, same bytes.
 * The cross-generation study (EXPERIMENTS.md) drives this per preset.
 */
std::vector<RunResult> runMatrixPreset(
    const std::vector<std::string> &names, const std::string &preset,
    Scale scale, std::uint64_t seed, bool use_cache = true,
    unsigned jobs = 0);

/**
 * Path of the TSV sweep cache runMatrix reads/writes for this
 * (scale, seed): "$LAPERM_CACHE_DIR/laperm_results_<scale>_<seed>.tsv",
 * default cache dir "cache". Exposed so tests and benches address the
 * cache without duplicating the layout.
 */
std::string sweepCachePath(Scale scale, std::uint64_t seed);

/**
 * Per-preset sweep cache path. The "k20c" preset maps to the legacy
 * sweepCachePath(scale, seed) file; other presets get
 * "laperm_results_<preset>_<scale>_<seed>.tsv" so preset sweeps never
 * collide with (or invalidate) the default matrix.
 */
std::string sweepCachePath(const std::string &preset, Scale scale,
                           std::uint64_t seed);

/** Find a result in a sweep; fatal if missing. */
const RunResult &findResult(const std::vector<RunResult> &results,
                            const std::string &workload,
                            DynParModel model, TbPolicy policy);

/** Arithmetic mean of @p metric over a sweep subset. */
double meanOver(const std::vector<RunResult> &results, DynParModel model,
                TbPolicy policy, double RunResult::*metric);

} // namespace laperm

#endif // LAPERM_HARNESS_EXPERIMENT_HH
