#include "harness/experiment.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "common/log.hh"
#include "gpu/gpu.hh"
#include "harness/thread_pool.hh"
#include "obs/locality.hh"
#include "obs/trace_collector.hh"
#include "sim/config_loader.hh"
#include "sim/presets.hh"
#include "workloads/registry.hh"

namespace laperm {

GpuConfig
paperConfig()
{
    // Defaults already encode Table I; spelled out for documentation.
    GpuConfig cfg;
    cfg.numSmx = 13;
    cfg.maxThreadsPerSmx = 2048;
    cfg.maxTbsPerSmx = 16;
    cfg.regsPerSmx = 65536;
    cfg.smemPerSmx = 32 * 1024;
    cfg.l1Size = 32 * 1024;
    cfg.l2Size = 1536 * 1024;
    cfg.kduEntries = 32;
    cfg.warpPolicy = WarpPolicy::GTO;
    return cfg;
}

namespace {

/**
 * Per-cell trace opt-in for sweeps: when LAPERM_TRACE_DIR is set, every
 * runOne writes its observability artifacts into that directory under a
 * deterministic name derived from the cell coordinates. Purely
 * additive: RunResult (and therefore the TSV cache) is unaffected, and
 * each cell owns its collector, so the parallel sweep stays
 * byte-deterministic at any worker count.
 */
std::string
traceDir()
{
    const char *dir = std::getenv("LAPERM_TRACE_DIR");
    return dir && *dir ? dir : std::string();
}

} // namespace

ResultRecord
runOneRecord(const Workload &workload, const GpuConfig &cfg,
             const std::string &trace_dir, TraceCache *traces)
{
    Gpu gpu(cfg, traces);
    std::unique_ptr<obs::TraceCollector> collector;
    std::unique_ptr<obs::LocalityTracker> locality;
    if (!trace_dir.empty()) {
        collector = std::make_unique<obs::TraceCollector>();
        gpu.observers().attach(collector.get());
        locality =
            std::make_unique<obs::LocalityTracker>(gpu.mem().numL1());
        gpu.setLocalityTracker(locality.get());
    }
    gpu.runWaves(workload.waves());
    if (collector) {
        std::error_code ec;
        std::filesystem::create_directories(trace_dir, ec);
        const std::string base =
            logFormat("%s/%s_%s_%s", trace_dir.c_str(),
                      workload.fullName().c_str(),
                      toString(cfg.dynParModel), toString(cfg.tbPolicy));
        collector->writeChromeTrace(base + ".trace.json");
        collector->writeIntervalTsv(base + ".intervals.tsv");
        collector->writeLaunchLatencyTsv(base + ".latency.tsv");
        locality->writeTsv(base + ".locality.tsv");
    }
    return ResultRecord::fromStats(workload.fullName(), cfg.dynParModel,
                                   cfg.tbPolicy, gpu.stats(),
                                   machineHash(cfg));
}

RunResult
runOne(const Workload &workload, const GpuConfig &cfg, TraceCache *traces)
{
    return runOneRecord(workload, cfg, traceDir(), traces).toRunResult();
}

namespace {

constexpr TbPolicy kPolicies[] = {TbPolicy::RR, TbPolicy::TbPri,
                                  TbPolicy::SmxBind,
                                  TbPolicy::AdaptiveBind};
constexpr DynParModel kModels[] = {DynParModel::CDP, DynParModel::DTBL};

bool
loadCache(const std::string &path, const std::string &preset,
          const std::vector<std::string> &names,
          std::vector<RunResult> &out)
{
    // Fingerprint-gated load (harness/result_cache.hh): a TSV written
    // by a different simulator build fails here and is regenerated.
    ResultCache cache;
    std::string payload;
    if (!cache.loadFile(path, payload))
        return false;
    std::vector<RunResult> rows;
    if (!decodeSweepTsv(payload, rows))
        return false;
    // A cached row must belong to the requested preset (legacy-format
    // rows decode with the "k20c" default, which is exactly right for
    // the legacy cache file they live in).
    for (const auto &r : rows) {
        if (r.preset != preset)
            return false;
    }
    // The cache is usable only if it covers the full request.
    for (const auto &name : names) {
        for (DynParModel m : kModels) {
            for (TbPolicy p : kPolicies) {
                bool found = false;
                for (const auto &r : rows) {
                    if (r.workload == name && r.model == m &&
                        r.policy == p) {
                        found = true;
                        break;
                    }
                }
                if (!found)
                    return false;
            }
        }
    }
    out = std::move(rows);
    return true;
}

void
saveCache(const std::string &path, const std::vector<RunResult> &rows)
{
    ResultCache cache;
    cache.storeFile(path, encodeSweepTsv(rows));
}

} // namespace

std::string
sweepCachePath(Scale scale, std::uint64_t seed)
{
    return logFormat("%s/laperm_results_%s_%llu.tsv",
                     cacheRootDir().c_str(), toString(scale),
                     static_cast<unsigned long long>(seed));
}

std::string
sweepCachePath(const std::string &preset, Scale scale,
               std::uint64_t seed)
{
    if (preset == "k20c")
        return sweepCachePath(scale, seed);
    return logFormat("%s/laperm_results_%s_%s_%llu.tsv",
                     cacheRootDir().c_str(), preset.c_str(),
                     toString(scale),
                     static_cast<unsigned long long>(seed));
}

std::vector<RunResult>
runMatrix(const std::vector<std::string> &names, Scale scale,
          std::uint64_t seed, bool use_cache, unsigned jobs)
{
    return runMatrixPreset(names, "k20c", scale, seed, use_cache, jobs);
}

std::vector<RunResult>
runMatrixPreset(const std::vector<std::string> &names,
                const std::string &preset, Scale scale,
                std::uint64_t seed, bool use_cache, unsigned jobs)
{
    const char *no_cache = std::getenv("LAPERM_NO_CACHE");
    if (no_cache && *no_cache == '1')
        use_cache = false;
    if (jobs == 0)
        jobs = ThreadPool::defaultJobs();

    // Fatal on an unknown preset before any simulation spends cycles.
    const GpuConfig base_machine = presetConfig(preset);

    // Same early-fatal discipline for the workload axis: an unknown
    // name (e.g. a typo in a tenant/mix spec routed here) dies with
    // the structured known-names error, never a mid-sweep surprise.
    for (const std::string &name : names) {
        if (!isKnownWorkload(name)) {
            laperm_fatal("unknown workload '%s' (known: %s)",
                         name.c_str(), workloadNameList().c_str());
        }
    }

    const std::string path = sweepCachePath(preset, scale, seed);
    std::vector<RunResult> results;
    if (use_cache && loadCache(path, preset, names, results))
        return results;
    results.clear();

    constexpr std::size_t kNumModels = std::size(kModels);
    constexpr std::size_t kNumPolicies = std::size(kPolicies);
    const std::size_t cellsPerWorkload = kNumModels * kNumPolicies;

    // Phase 1: input generation, one job per workload. Workloads are
    // immutable after setup() (traces const, programs const), so the
    // cell jobs below const-borrow them concurrently.
    std::vector<std::unique_ptr<Workload>> workloads(names.size());
    {
        ThreadPool pool(static_cast<unsigned>(
            std::min<std::size_t>(jobs, std::max<std::size_t>(
                                            names.size(), 1))));
        for (std::size_t i = 0; i < names.size(); ++i) {
            pool.submit([&, i] {
                auto w = createWorkload(names[i]);
                w->setup(scale, seed);
                workloads[i] = std::move(w);
            });
        }
        pool.wait();
    }

    // Phase 2: one job per (workload x model x policy) cell. Every
    // cell owns its own Gpu instance and writes to a preassigned slot,
    // so the result vector — and therefore the TSV cache — is
    // byte-identical no matter how many workers raced to fill it. The
    // cells of a workload borrow TB traces from one shared cache
    // (traces do not depend on model or policy); the last cell of a
    // workload to finish frees the workload and its traces.
    results.resize(names.size() * cellsPerWorkload);
    std::vector<std::unique_ptr<TraceCache>> traces(names.size());
    std::vector<std::atomic<std::size_t>> cellsLeft(names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        traces[i] = std::make_unique<TraceCache>();
        cellsLeft[i] = cellsPerWorkload;
    }
    {
        ThreadPool pool(static_cast<unsigned>(
            std::min<std::size_t>(jobs, results.size())));
        for (std::size_t i = 0; i < names.size(); ++i) {
            for (std::size_t mi = 0; mi < kNumModels; ++mi) {
                for (std::size_t pi = 0; pi < kNumPolicies; ++pi) {
                    const std::size_t slot =
                        i * cellsPerWorkload + mi * kNumPolicies + pi;
                    pool.submit([&, i, mi, pi, slot] {
                        GpuConfig cfg = base_machine;
                        cfg.dynParModel = kModels[mi];
                        cfg.tbPolicy = kPolicies[pi];
                        cfg.seed = seed;
                        results[slot] =
                            runOne(*workloads[i], cfg, traces[i].get());
                        results[slot].preset = preset;
                        laperm_inform(
                            "%s %s/%s: ipc=%.2f l1=%.3f l2=%.3f",
                            names[i].c_str(), toString(kModels[mi]),
                            toString(kPolicies[pi]), results[slot].ipc,
                            results[slot].l1HitRate,
                            results[slot].l2HitRate);
                        if (--cellsLeft[i] == 0) {
                            traces[i].reset();
                            workloads[i].reset();
                        }
                    });
                }
            }
        }
        pool.wait();
    }

    if (use_cache)
        saveCache(path, results);
    return results;
}

const RunResult &
findResult(const std::vector<RunResult> &results,
           const std::string &workload, DynParModel model,
           TbPolicy policy)
{
    for (const auto &r : results) {
        if (r.workload == workload && r.model == model &&
            r.policy == policy) {
            return r;
        }
    }
    laperm_fatal("no result for %s %s/%s", workload.c_str(),
                 toString(model), toString(policy));
}

double
meanOver(const std::vector<RunResult> &results, DynParModel model,
         TbPolicy policy, double RunResult::*metric)
{
    double sum = 0.0;
    std::uint64_t n = 0;
    for (const auto &r : results) {
        if (r.model == model && r.policy == policy) {
            sum += r.*metric;
            ++n;
        }
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

} // namespace laperm
