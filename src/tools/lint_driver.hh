/**
 * @file
 * sim-lint driver (DESIGN.md §12.4): orchestrates the three analysis
 * passes over a file set, applies allow() suppressions and audits
 * them, applies the committed baseline, and renders reports (text +
 * SARIF 2.1.0).
 *
 * Pipeline per run:
 *   1. load files (explicit list, or every source under <root>/src);
 *   2. token pass, layering pass (when a spec is present) and cycle-
 *      safety pass — each timed;
 *   3. suppression: drop findings covered by allow()/allow-file()
 *      markers; every marker that suppressed nothing becomes an
 *      unused-allow finding (waivers cannot rot silently);
 *   4. baseline: drop findings matching committed baseline entries
 *      (rule + path + squeezed line text — line-number-insensitive so
 *      unrelated edits do not churn the file); every entry matching
 *      nothing becomes a stale-baseline finding (burn-down is
 *      enforced, not hoped for);
 *   5. sort findings (path, line, rule) and optionally write SARIF.
 *
 * The driver is deterministic: same tree, same spec, same baseline —
 * byte-identical output, independent of directory iteration order.
 */

#ifndef LAPERM_TOOLS_LINT_DRIVER_HH
#define LAPERM_TOOLS_LINT_DRIVER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "tools/sim_lint.hh"

namespace laperm {
namespace simlint {

struct PassTiming
{
    std::string pass;          ///< "token", "layering", ...
    std::uint64_t micros = 0;  ///< wall time (reporting only)
    std::size_t findings = 0;  ///< raw findings before suppression
};

struct DriverOptions
{
    /** Repo root; files default to <root>/src when none are given. */
    std::string root = ".";
    /** Explicit file list (e.g. from --diff); empty = scan root/src. */
    std::vector<std::string> files;
    /**
     * Layering spec path. Empty = use <root>/layering.toml when it
     * exists, else skip the layering pass.
     */
    std::string layeringSpec;
    /**
     * Baseline path. Empty = use <root>/sim_lint_baseline.tsv when it
     * exists, else no baseline.
     */
    std::string baselinePath;
    /** When set, write SARIF 2.1.0 to this path. */
    std::string sarifPath;
    /**
     * When set, skip baseline application and instead write the
     * current (post-suppression, non-audit) findings to this path in
     * baseline format — the burn-down bootstrap.
     */
    std::string writeBaselinePath;
    /** Skip the unused-suppression audit (fixture debugging only). */
    bool audit = true;
};

struct DriverResult
{
    /** Final findings, sorted by (path, line, rule). */
    std::vector<Finding> findings;
    std::vector<PassTiming> timings;
    std::size_t filesScanned = 0;
    /** Baseline entries consumed by a matching finding. */
    std::size_t baselineMatched = 0;
    /** Non-empty on configuration/IO error (CLI exit 2). */
    std::string error;
};

/** Run the full pipeline. */
DriverResult runDriver(const DriverOptions &opts);

/**
 * Baseline entry serialization for one finding:
 *   <rule>\t<path relative to root>\t<squeezed flagged line>
 */
std::string baselineKey(const Finding &f, const std::string &flaggedLine,
                        const std::string &root);

/** Render findings as one baseline file (sorted, with header). */
std::string renderBaseline(const std::vector<std::string> &keys);

/** Write SARIF 2.1.0. Returns false on IO error. */
bool writeSarif(const std::string &path,
                const std::vector<Finding> &findings,
                const std::string &root);

/** @p path relative to @p root when it is inside it (else unchanged). */
std::string relativeToRoot(const std::string &path,
                           const std::string &root);

} // namespace simlint
} // namespace laperm

#endif // LAPERM_TOOLS_LINT_DRIVER_HH
