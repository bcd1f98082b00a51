#include "harness/tenant_sweep.hh"

#include <cstdlib>
#include <sstream>
#include <utility>

#include "common/log.hh"
#include "common/text.hh"
#include "harness/experiment.hh"
#include "harness/result_cache.hh"
#include "harness/thread_pool.hh"
#include "sim/presets.hh"
#include "tenant/mixes.hh"
#include "tenant/tenant_manager.hh"

namespace laperm {

namespace {

constexpr TbPolicy kPolicies[] = {TbPolicy::RR, TbPolicy::TbPri,
                                  TbPolicy::SmxBind,
                                  TbPolicy::AdaptiveBind};
constexpr std::size_t kNumPolicies = std::size(kPolicies);
/** Largest policy index a cache row may name. */
constexpr std::uint64_t kMaxPolicy =
    static_cast<std::uint64_t>(TbPolicy::AdaptiveBind);

bool
loadGroup(const std::string &path, const std::string &mix_name,
          const std::string &preset, std::size_t tenants,
          std::vector<TenantSweepRow> &out)
{
    ResultCache cache;
    std::string payload;
    if (!cache.loadFile(path, payload))
        return false;
    std::vector<TenantSweepRow> rows;
    if (!decodeTenantSweepTsv(payload, rows))
        return false;
    // The group file must hold exactly this (mix, preset) under every
    // policy with the expected tenant count; anything else (e.g. a mix
    // definition that changed shape) regenerates.
    if (rows.size() != kNumPolicies * tenants)
        return false;
    std::size_t ix = 0;
    for (TbPolicy p : kPolicies) {
        for (std::size_t t = 0; t < tenants; ++t, ++ix) {
            const TenantSweepRow &r = rows[ix];
            if (r.mix != mix_name || r.preset != preset ||
                r.policy != p || r.tenantId != t) {
                return false;
            }
        }
    }
    out = std::move(rows);
    return true;
}

} // namespace

std::vector<TenantSweepRow>
tenantSweepRows(const std::string &mix, const std::string &preset,
                TbPolicy policy, const tenant::MixStudy &study)
{
    std::vector<TenantSweepRow> rows;
    for (const tenant::TenantMetrics &tm : study.metrics.perTenant) {
        TenantSweepRow r;
        r.mix = mix;
        r.preset = preset;
        r.policy = policy;
        r.tenant = tm.name;
        r.tenantId = tm.tenant;
        r.jobs = tm.jobs;
        r.antt = tm.antt;
        r.p50 = tm.p50;
        r.p95 = tm.p95;
        r.p99 = tm.p99;
        r.retiredTbs = tm.retiredTbs;
        r.mixAntt = study.metrics.antt;
        r.mixStp = study.metrics.stp;
        r.mixJain = study.metrics.jain;
        r.makespan = study.metrics.makespan;
        rows.push_back(std::move(r));
    }
    return rows;
}

std::string
encodeTenantSweepTsv(const std::vector<TenantSweepRow> &rows)
{
    std::ostringstream out;
    out << "# mix preset policy tenant tenantId jobs ANTT p50 p95 p99 "
           "retiredTbs mixANTT STP Jain makespan\n";
    for (const TenantSweepRow &r : rows) {
        out << r.mix << ' ' << r.preset << ' '
            << static_cast<int>(r.policy) << ' ' << r.tenant << ' '
            << r.tenantId << ' ' << r.jobs << ' '
            << logFormat("%.17g", r.antt) << ' ' << r.p50 << ' '
            << r.p95 << ' ' << r.p99 << ' ' << r.retiredTbs << ' '
            << logFormat("%.17g", r.mixAntt) << ' '
            << logFormat("%.17g", r.mixStp) << ' '
            << logFormat("%.17g", r.mixJain) << ' ' << r.makespan
            << '\n';
    }
    return out.str();
}

bool
decodeTenantSweepTsv(const std::string &tsv,
                     std::vector<TenantSweepRow> &out)
{
    std::istringstream in(tsv);
    std::vector<TenantSweepRow> rows;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::vector<std::string> f;
        for (std::string tok; ls >> tok;)
            f.push_back(std::move(tok));
        if (f.size() != 15)
            return false;
        TenantSweepRow r;
        r.mix = f[0];
        r.preset = f[1];
        r.tenant = f[3];
        std::uint64_t policy = 0, tenantId = 0, jobs = 0;
        if (!parseUInt(f[2], kMaxPolicy, policy) ||
            !parseUInt(f[4], UINT32_MAX, tenantId) ||
            !parseUInt(f[5], UINT32_MAX, jobs))
            return false;
        r.policy = static_cast<TbPolicy>(policy);
        r.tenantId = static_cast<std::uint32_t>(tenantId);
        r.jobs = static_cast<std::uint32_t>(jobs);
        const std::pair<std::size_t, std::uint64_t *> counts[] = {
            {7, &r.p50}, {8, &r.p95}, {9, &r.p99}, {10, &r.retiredTbs},
            {14, &r.makespan}};
        for (const auto &[i, v] : counts) {
            if (!parseUInt(f[i], UINT64_MAX, *v))
                return false;
        }
        const std::pair<std::size_t, double *> ratios[] = {
            {6, &r.antt}, {11, &r.mixAntt}, {12, &r.mixStp},
            {13, &r.mixJain}};
        for (const auto &[i, v] : ratios) {
            if (!parseFiniteDouble(f[i], *v))
                return false;
        }
        rows.push_back(std::move(r));
    }
    out = std::move(rows);
    return true;
}

std::string
tenantSweepCachePath(const std::string &mix, const std::string &preset,
                     std::uint64_t seed)
{
    return logFormat("%s/laperm_tenants_%s_%s_%llu.tsv",
                     cacheRootDir().c_str(), mix.c_str(), preset.c_str(),
                     static_cast<unsigned long long>(seed));
}

std::vector<TenantSweepRow>
runTenantSweep(const std::vector<std::string> &mixes,
               const std::vector<std::string> &presets,
               std::uint64_t seed, bool use_cache, unsigned jobs)
{
    const char *no_cache = std::getenv("LAPERM_NO_CACHE");
    if (no_cache && *no_cache == '1')
        use_cache = false;
    if (jobs == 0)
        jobs = ThreadPool::defaultJobs();

    // Resolve every axis value up front so a typo dies with the
    // structured known-names error before any simulation runs.
    struct Group
    {
        tenant::MixSpec mix;
        std::string preset;
        std::string path;
        std::vector<TenantSweepRow> rows; ///< filled from cache or run
        bool cached = false;
    };
    std::vector<Group> groups;
    for (const std::string &mix_name : mixes) {
        const tenant::MixSpec mix = tenant::builtinMix(mix_name);
        for (const std::string &preset : presets) {
            presetConfig(preset); // fatal on unknown preset
            Group g;
            g.mix = mix;
            g.preset = preset;
            g.path = tenantSweepCachePath(mix_name, preset, seed);
            groups.push_back(std::move(g));
        }
    }

    for (Group &g : groups) {
        if (use_cache && loadGroup(g.path, g.mix.name, g.preset,
                                   g.mix.tenants.size(), g.rows)) {
            g.cached = true;
        }
    }

    // One job per (group x policy) cell, each owning its device and
    // workload instances and writing a preassigned slot — the output
    // (and the cache TSVs) are byte-identical at any worker count.
    std::vector<std::vector<TenantSweepRow>> cells(groups.size() *
                                                   kNumPolicies);
    {
        ThreadPool pool(static_cast<unsigned>(
            std::min<std::size_t>(jobs, cells.size())));
        for (std::size_t gi = 0; gi < groups.size(); ++gi) {
            if (groups[gi].cached)
                continue;
            for (std::size_t pi = 0; pi < kNumPolicies; ++pi) {
                const std::size_t slot = gi * kNumPolicies + pi;
                pool.submit([&, gi, pi, slot] {
                    const Group &g = groups[gi];
                    GpuConfig cfg = presetConfig(g.preset);
                    cfg.tbPolicy = kPolicies[pi];
                    cfg.seed = seed;
                    tenant::MixStudy study =
                        tenant::runMixStudy(g.mix, cfg);
                    cells[slot] = tenantSweepRows(
                        g.mix.name, g.preset, kPolicies[pi], study);
                    laperm_inform(
                        "mix %s %s/%s: ANTT=%.2f STP=%.2f Jain=%.3f",
                        g.mix.name.c_str(), g.preset.c_str(),
                        toString(kPolicies[pi]), study.metrics.antt,
                        study.metrics.stp, study.metrics.jain);
                });
            }
        }
        pool.wait();
    }

    std::vector<TenantSweepRow> out;
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
        Group &g = groups[gi];
        if (!g.cached) {
            for (std::size_t pi = 0; pi < kNumPolicies; ++pi) {
                for (TenantSweepRow &r : cells[gi * kNumPolicies + pi])
                    g.rows.push_back(std::move(r));
            }
            if (use_cache) {
                ResultCache cache;
                cache.storeFile(g.path, encodeTenantSweepTsv(g.rows));
            }
        }
        for (TenantSweepRow &r : g.rows)
            out.push_back(std::move(r));
    }
    return out;
}

} // namespace laperm
