#include "tenant/tenant_spec.hh"

#include <cctype>
#include <fstream>
#include <sstream>

#include "common/text.hh"
#include "workloads/registry.hh"

namespace laperm {
namespace tenant {

namespace {

bool
validName(const std::string &s)
{
    if (s.empty())
        return false;
    for (char c : s) {
        if (!std::islower(static_cast<unsigned char>(c)) &&
            !std::isdigit(static_cast<unsigned char>(c)) && c != '_' &&
            c != '-') {
            return false;
        }
    }
    return true;
}

} // namespace

bool
parseMixToml(const std::string &text, MixSpec &out, std::string &err)
{
    // Scratch-then-commit (config_loader discipline): @p out is only
    // written once the whole spec parsed and validated.
    MixSpec mix;
    TenantSpec *cur = nullptr;

    auto visit = [&](const ConfigLine &l, std::string &e) {
        const std::string_view sec = l.section;
        if (l.header) {
            cur = nullptr;
            if (sec == "mix")
                return true;
            if (sec.rfind("tenant.", 0) == 0) {
                const std::string name(sec.substr(7));
                if (!validName(name)) {
                    e = "bad tenant name '" + name + "'";
                    return false;
                }
                for (const TenantSpec &t : mix.tenants) {
                    if (t.name == name) {
                        e = "duplicate tenant '" + name + "'";
                        return false;
                    }
                }
                mix.tenants.emplace_back();
                cur = &mix.tenants.back();
                cur->name = name;
                return true;
            }
            e = "unknown section " + std::string(sec) +
                " (only [mix] and [tenant.<name>] are recognized)";
            return false;
        }

        const std::string key(l.key);
        const std::string value(l.value);
        if (!validName(key)) {
            e = "bad key '" + key + "'";
            return false;
        }
        // value as a count in [lo, hi] into v, else error @p what.
        std::uint64_t v = 0;
        auto count = [&](std::uint64_t lo, std::uint64_t hi,
                         const char *what) {
            if (parseUInt(value, hi, v) && v >= lo)
                return true;
            e = what;
            return false;
        };

        if (sec == "mix") {
            if (key == "name") {
                mix.name = value;
            } else if (key == "quantum") {
                if (!count(1, UINT64_MAX,
                           "quantum must be a positive cycle count"))
                    return false;
                mix.quantum = v;
            } else if (key == "admission_threshold_pct") {
                if (!count(1, 100,
                           "admission_threshold_pct must be in 1..100"))
                    return false;
                mix.admissionThresholdPct = static_cast<std::uint32_t>(v);
            } else if (key == "ewma_shift") {
                if (!count(0, 16, "ewma_shift must be in 0..16"))
                    return false;
                mix.ewmaShift = static_cast<std::uint32_t>(v);
            } else {
                e = "unknown [mix] key '" + key + "'";
                return false;
            }
            return true;
        }
        if (!cur) {
            e = "key outside any section";
            return false;
        }
        if (key == "workload") {
            if (!isKnownWorkload(value)) {
                e = "unknown workload '" + value + "' (known: " +
                    workloadNameList() + ")";
                return false;
            }
            cur->workload = value;
        } else if (key == "scale") {
            if (!parseScale(value, cur->scale)) {
                e = "scale must be tiny|small|full|huge";
                return false;
            }
        } else if (key == "priority") {
            if (!count(0, 255, "priority must be in 0..255"))
                return false;
            cur->priority = static_cast<std::uint32_t>(v);
        } else if (key == "arrival") {
            if (!count(0, UINT64_MAX, "arrival must be a cycle count"))
                return false;
            cur->firstArrival = v;
        } else if (key == "period") {
            if (!count(0, UINT64_MAX, "period must be a cycle count"))
                return false;
            cur->period = v;
        } else if (key == "jobs") {
            if (!count(1, UINT32_MAX, "jobs must be in 1..4294967295"))
                return false;
            cur->jobs = static_cast<std::uint32_t>(v);
        } else {
            e = "unknown [tenant] key '" + key + "'";
            return false;
        }
        return true;
    };
    if (!lexConfig(text, visit, err))
        return false;

    if (mix.tenants.empty()) {
        err = "mix has no [tenant.<name>] sections";
        return false;
    }
    for (const TenantSpec &t : mix.tenants) {
        if (t.workload.empty()) {
            err = "tenant '" + t.name + "' has no workload";
            return false;
        }
        if (t.jobs > 1 && t.period == 0) {
            err = "tenant '" + t.name +
                  "' has multiple jobs but no period";
            return false;
        }
    }
    out = std::move(mix);
    return true;
}

bool
loadMixToml(const std::string &path, MixSpec &out, std::string &err)
{
    std::ifstream in(path);
    if (!in) {
        err = "cannot open mix spec '" + path + "'";
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    if (!parseMixToml(buf.str(), out, err)) {
        err = path + ": " + err;
        return false;
    }
    if (out.name.empty()) {
        // A file spec without an explicit name inherits its path stem.
        auto slash = path.find_last_of('/');
        std::string stem =
            slash == std::string::npos ? path : path.substr(slash + 1);
        auto dot = stem.rfind(".toml");
        if (dot != std::string::npos)
            stem = stem.substr(0, dot);
        out.name = stem;
    }
    return true;
}

} // namespace tenant
} // namespace laperm
