#include "tools/lint_driver.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <sstream>

#include "common/text.hh"
#include "tools/lint_cycle.hh"
#include "tools/lint_layering.hh"

namespace laperm {
namespace simlint {

namespace {

struct LoadedFile
{
    std::string path;
    std::string content;
    std::vector<std::string> rawLines;
};

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

bool
fileExists(const std::string &path)
{
    std::ifstream in(path);
    return static_cast<bool>(in);
}

std::uint64_t
nowMicros()
{
    // Wall time for reporting the linter's own pass cost; tools/ sits
    // outside the restricted directories where wall-clock is banned.
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
sortFindings(std::vector<Finding> &fs)
{
    std::sort(fs.begin(), fs.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.path != b.path)
                      return a.path < b.path;
                  if (a.line != b.line)
                      return a.line < b.line;
                  if (a.rule != b.rule)
                      return static_cast<int>(a.rule) <
                             static_cast<int>(b.rule);
                  return a.message < b.message;
              });
}

} // namespace

std::string
relativeToRoot(const std::string &path, const std::string &root)
{
    std::string prefix = root;
    while (!prefix.empty() && (prefix.back() == '/' || prefix.back() == '\\'))
        prefix.pop_back();
    if (!prefix.empty() && path.size() > prefix.size() &&
        path.compare(0, prefix.size(), prefix) == 0 &&
        (path[prefix.size()] == '/' || path[prefix.size()] == '\\')) {
        return path.substr(prefix.size() + 1);
    }
    return path;
}

std::string
baselineKey(const Finding &f, const std::string &flaggedLine,
            const std::string &root)
{
    return std::string(ruleName(f.rule)) + "\t" +
           relativeToRoot(f.path, root) + "\t" + squeeze(flaggedLine);
}

std::string
renderBaseline(const std::vector<std::string> &keys)
{
    std::string out =
        "# sim-lint baseline: one grandfathered finding per line\n"
        "# <rule>\\t<path>\\t<squeezed flagged line>\n"
        "# New findings gate; entries here burn down. A stale entry\n"
        "# (matching no current finding) fails the gate — remove it.\n";
    std::vector<std::string> sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    for (const auto &k : sorted)
        out += k + "\n";
    return out;
}

bool
writeSarif(const std::string &path, const std::vector<Finding> &findings,
           const std::string &root)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;

    // Rules actually present, deduped, in enum order.
    std::vector<Rule> rules;
    for (const Finding &f : findings) {
        if (std::find(rules.begin(), rules.end(), f.rule) == rules.end())
            rules.push_back(f.rule);
    }
    std::sort(rules.begin(), rules.end(),
              [](Rule a, Rule b) {
                  return static_cast<int>(a) < static_cast<int>(b);
              });

    out << "{\n"
        << "  \"$schema\": \"https://raw.githubusercontent.com/oasis-"
           "tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n"
        << "  \"version\": \"2.1.0\",\n"
        << "  \"runs\": [\n"
        << "    {\n"
        << "      \"tool\": {\n"
        << "        \"driver\": {\n"
        << "          \"name\": \"sim-lint\",\n"
        << "          \"version\": \"2.0.0\",\n"
        << "          \"informationUri\": "
           "\"DESIGN.md#12-static-analysis-architecture\",\n"
        << "          \"rules\": [\n";
    for (std::size_t i = 0; i < rules.size(); ++i) {
        out << "            {\"id\": \"" << ruleName(rules[i]) << "\"}"
            << (i + 1 < rules.size() ? "," : "") << "\n";
    }
    out << "          ]\n"
        << "        }\n"
        << "      },\n"
        << "      \"results\": [\n";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        out << "        {\n"
            << "          \"ruleId\": \"" << ruleName(f.rule) << "\",\n"
            << "          \"level\": \"error\",\n"
            << "          \"message\": {\"text\": \""
            << jsonEscape(f.message) << "\"},\n"
            << "          \"locations\": [\n"
            << "            {\n"
            << "              \"physicalLocation\": {\n"
            << "                \"artifactLocation\": {\"uri\": \""
            << jsonEscape(relativeToRoot(f.path, root)) << "\"},\n"
            << "                \"region\": {\"startLine\": " << f.line
            << "}\n"
            << "              }\n"
            << "            }\n"
            << "          ]\n"
            << "        }" << (i + 1 < findings.size() ? "," : "")
            << "\n";
    }
    out << "      ]\n"
        << "    }\n"
        << "  ]\n"
        << "}\n";
    return static_cast<bool>(out);
}

DriverResult
runDriver(const DriverOptions &opts)
{
    DriverResult result;

    // --- resolve configuration ------------------------------------
    std::string specPath = opts.layeringSpec;
    if (specPath.empty()) {
        const std::string candidate = opts.root + "/layering.toml";
        if (fileExists(candidate))
            specPath = candidate;
    }
    LayerSpec spec;
    bool haveSpec = false;
    if (!specPath.empty()) {
        std::string err;
        if (!loadLayerSpec(specPath, spec, err)) {
            result.error = err;
            return result;
        }
        haveSpec = true;
    }

    std::string baselinePath = opts.baselinePath;
    if (baselinePath.empty()) {
        const std::string candidate = opts.root + "/sim_lint_baseline.tsv";
        if (fileExists(candidate))
            baselinePath = candidate;
    }

    // --- load files -----------------------------------------------
    std::vector<std::string> paths = opts.files;
    if (paths.empty())
        paths = listSources(opts.root + "/src");
    std::vector<LoadedFile> files;
    files.reserve(paths.size());
    for (const auto &p : paths) {
        LoadedFile f;
        f.path = p;
        if (!readFile(p, f.content)) {
            result.error = "cannot read " + p;
            return result;
        }
        f.rawLines = splitLines(f.content);
        files.push_back(std::move(f));
    }
    result.filesScanned = files.size();

    // --- passes (timed) -------------------------------------------
    // Raw findings per file index, so suppression can match markers
    // file-locally.
    std::vector<std::vector<Finding>> raw(files.size());
    auto runPass = [&](const char *name, auto &&passFn) {
        PassTiming t;
        t.pass = name;
        const std::uint64_t t0 = nowMicros();
        for (std::size_t i = 0; i < files.size(); ++i) {
            std::vector<Finding> fs = passFn(files[i]);
            t.findings += fs.size();
            raw[i].insert(raw[i].end(), fs.begin(), fs.end());
        }
        t.micros = nowMicros() - t0;
        result.timings.push_back(t);
    };

    runPass("token", [](const LoadedFile &f) {
        return scanTokenRules(f.path, f.content);
    });
    if (haveSpec) {
        runPass("layering", [&](const LoadedFile &f) {
            return lintLayering(f.path, f.content, spec);
        });
    }
    runPass("cycle-safety", [](const LoadedFile &f) {
        return lintCycleSafety(f.path, f.content);
    });

    // --- suppression + audit --------------------------------------
    std::vector<Finding> kept;
    for (std::size_t i = 0; i < files.size(); ++i) {
        std::vector<Allow> allows = collectAllows(files[i].rawLines);
        std::vector<Finding> fs = applySuppressions(raw[i], allows);
        kept.insert(kept.end(), fs.begin(), fs.end());
        if (opts.audit) {
            for (const Allow &a : allows) {
                if (a.used)
                    continue;
                kept.push_back(Finding{
                    files[i].path, a.line, Rule::UnusedAllow,
                    std::string("suppression 'sim-lint: ") +
                        (a.fileWide ? "allow-file(" : "allow(") +
                        ruleName(a.rule) +
                        ")' no longer suppresses any finding; remove "
                        "it (or fix the regression that re-armed it)"});
            }
        }
    }

    // Flagged-line lookup shared by baseline matching and baseline
    // writing.
    auto flaggedLine = [&](const Finding &f) -> std::string {
        for (const LoadedFile &lf : files) {
            if (lf.path == f.path) {
                if (f.line >= 1 && f.line <= lf.rawLines.size())
                    return lf.rawLines[f.line - 1];
                break;
            }
        }
        return "";
    };

    // --- baseline bootstrap (--write-baseline) --------------------
    if (!opts.writeBaselinePath.empty()) {
        std::vector<std::string> keys;
        for (const Finding &f : kept) {
            if (f.rule == Rule::UnusedAllow ||
                f.rule == Rule::StaleBaseline)
                continue; // audit findings are never grandfathered
            keys.push_back(baselineKey(f, flaggedLine(f), opts.root));
        }
        std::ofstream out(opts.writeBaselinePath, std::ios::binary);
        if (!out || !(out << renderBaseline(keys))) {
            result.error =
                "cannot write baseline " + opts.writeBaselinePath;
            return result;
        }
        sortFindings(kept);
        result.findings = std::move(kept);
        return result;
    }

    // --- baseline -------------------------------------------------
    if (!baselinePath.empty()) {
        std::string text;
        if (!readFile(baselinePath, text)) {
            result.error = "cannot read baseline " + baselinePath;
            return result;
        }
        // entry key -> (first line number, unmatched count)
        std::map<std::string, std::pair<std::size_t, std::size_t>> entries;
        const std::vector<std::string> blines = splitLines(text);
        for (std::size_t i = 0; i < blines.size(); ++i) {
            const std::string &l = blines[i];
            if (l.empty() || l[0] == '#')
                continue;
            auto [it, inserted] =
                entries.emplace(l, std::make_pair(i + 1, std::size_t{0}));
            (void)inserted;
            it->second.second += 1;
        }
        std::vector<Finding> unbaselined;
        for (const Finding &f : kept) {
            // Audit rules never hide behind the baseline.
            if (f.rule == Rule::UnusedAllow ||
                f.rule == Rule::StaleBaseline) {
                unbaselined.push_back(f);
                continue;
            }
            std::string flagged;
            for (const LoadedFile &lf : files) {
                if (lf.path == f.path) {
                    if (f.line >= 1 && f.line <= lf.rawLines.size())
                        flagged = lf.rawLines[f.line - 1];
                    break;
                }
            }
            auto it = entries.find(baselineKey(f, flagged, opts.root));
            if (it != entries.end() && it->second.second > 0) {
                it->second.second -= 1;
                result.baselineMatched += 1;
            } else {
                unbaselined.push_back(f);
            }
        }
        for (const auto &kv : entries) {
            for (std::size_t n = 0; n < kv.second.second; ++n) {
                unbaselined.push_back(Finding{
                    baselinePath, kv.second.first, Rule::StaleBaseline,
                    "baseline entry matches no current finding; the "
                    "debt was paid — delete the entry: " + kv.first});
            }
        }
        kept = std::move(unbaselined);
    }

    sortFindings(kept);
    result.findings = std::move(kept);

    if (!opts.sarifPath.empty()) {
        if (!writeSarif(opts.sarifPath, result.findings, opts.root)) {
            result.error = "cannot write SARIF " + opts.sarifPath;
            return result;
        }
    }
    return result;
}

} // namespace simlint
} // namespace laperm
