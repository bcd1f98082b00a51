#include "serve/service/sim_request.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>

#include "common/log.hh"
#include "harness/experiment.hh"
#include "harness/result_cache.hh"
#include "sim/config_loader.hh"
#include "sim/presets.hh"
#include "tenant/mixes.hh"
#include "workloads/registry.hh"

namespace laperm {
namespace serve {

namespace {

/** How a run flag's command-line value becomes its wire field. */
enum class FlagKind
{
    String, ///< the value as a JSON string
    Number, ///< the value as a raw JSON number token
    File,   ///< the named file's text as a JSON string
};

/** A run flag and the request field it sets. */
struct RunFlag
{
    const char *flag;
    const char *field;
    FlagKind kind;
};

// Every run flag is its wire field spelled with dashes, so a command
// line is a mechanical translation of a request (and vice versa in
// serve_smoke.sh). fromJson is the only parser of the values.
constexpr RunFlag kRunFlags[] = {
    {"--workload", "workload", FlagKind::String},
    {"--model", "model", FlagKind::String},
    {"--policy", "policy", FlagKind::String},
    {"--scale", "scale", FlagKind::String},
    {"--seed", "seed", FlagKind::Number},
    {"--preset", "preset", FlagKind::String},
    {"--config", "config", FlagKind::File},
    {"--smx", "smx", FlagKind::Number},
    {"--l1-kb", "l1_kb", FlagKind::Number},
    {"--l2-kb", "l2_kb", FlagKind::Number},
    {"--levels", "levels", FlagKind::Number},
    {"--cdp-latency", "cdp_latency", FlagKind::Number},
    {"--dtbl-latency", "dtbl_latency", FlagKind::Number},
    {"--warp-sched", "warp_sched", FlagKind::String},
    {"--trace-dir", "trace_dir", FlagKind::String},
    {"--tenants", "tenants", FlagKind::String},
};

bool
getU32(const JsonObject &obj, const std::string &key, std::uint32_t &out,
       std::string &err)
{
    std::uint64_t v;
    if (!getU64(obj, key, v) || v > 0xFFFFFFFFull) {
        err = "bad value for '" + key + "'";
        return false;
    }
    out = static_cast<std::uint32_t>(v);
    return true;
}

} // namespace

bool
SimRequest::fromJson(const JsonObject &obj, SimRequest &out,
                     std::string &err)
{
    SimRequest r;
    r.cfg = paperConfig();

    // Machine fields apply in fixed precedence — preset, then config
    // TOML, then single-field shortcuts — independent of JSON field
    // order (JsonObject iterates alphabetically, which would otherwise
    // interleave them).
    std::string s;
    if (obj.count("preset")) {
        if (!getString(obj, "preset", s) || !findPreset(s, r.cfg)) {
            err = "'preset' must be one of: " + presetNameList();
            return false;
        }
        r.presetName = s;
    }
    if (obj.count("config")) {
        if (!getString(obj, "config", s)) {
            err = "'config' must be a string of machine TOML";
            return false;
        }
        std::string toml_err;
        if (!parseMachineToml(s, r.cfg, toml_err)) {
            err = "bad 'config': " + toml_err;
            return false;
        }
    }

    for (const auto &[key, value] : obj) {
        if (key == "op" || key == "preset" || key == "config") {
            continue; // dispatched / already applied above
        } else if (key == "workload") {
            if (!getString(obj, key, r.workload)) {
                err = "'workload' must be a string";
                return false;
            }
        } else if (key == "model") {
            if (!getString(obj, key, s) || !parseModel(s, r.model)) {
                err = "'model' must be cdp|dtbl";
                return false;
            }
        } else if (key == "policy") {
            if (!getString(obj, key, s) || !parsePolicy(s, r.policy)) {
                err = "'policy' must be rr|tbpri|smxbind|adaptive";
                return false;
            }
        } else if (key == "scale") {
            if (!getString(obj, key, s) || !parseScale(s, r.scale)) {
                err = "'scale' must be tiny|small|full|huge";
                return false;
            }
        } else if (key == "warp_sched") {
            if (!getString(obj, key, s) ||
                !parseWarpPolicy(s, r.cfg.warpPolicy)) {
                err = "'warp_sched' must be gto|lrr|tbaware";
                return false;
            }
        } else if (key == "trace_dir") {
            if (!getString(obj, key, r.traceDir)) {
                err = "'trace_dir' must be a string";
                return false;
            }
        } else if (key == "tenants") {
            if (!getString(obj, key, r.tenants)) {
                err = "'tenants' must be a string";
                return false;
            }
        } else if (key == "seed") {
            if (!getU64(obj, key, r.seed)) {
                err = "bad value for 'seed'";
                return false;
            }
        } else if (key == "smx") {
            if (!getU32(obj, key, r.cfg.numSmx, err))
                return false;
        } else if (key == "l1_kb") {
            std::uint32_t kb = 0;
            if (!getU32(obj, key, kb, err) || kb > 0x3FFFFFu) {
                err = "bad value for 'l1_kb'";
                return false;
            }
            r.cfg.l1Size = kb * 1024;
        } else if (key == "l2_kb") {
            std::uint32_t kb = 0;
            if (!getU32(obj, key, kb, err) || kb > 0x3FFFFFu) {
                err = "bad value for 'l2_kb'";
                return false;
            }
            r.cfg.l2Size = kb * 1024;
        } else if (key == "levels") {
            if (!getU32(obj, key, r.cfg.maxPriorityLevels, err))
                return false;
        } else if (key == "cdp_latency") {
            if (!getU64(obj, key, r.cfg.cdpLaunchLatency)) {
                err = "bad value for 'cdp_latency'";
                return false;
            }
        } else if (key == "dtbl_latency") {
            if (!getU64(obj, key, r.cfg.dtblLaunchLatency)) {
                err = "bad value for 'dtbl_latency'";
                return false;
            }
        } else {
            err = "unknown request field '" + key + "'";
            return false;
        }
        (void)value;
    }

    r.cfg.dynParModel = r.model;
    r.cfg.tbPolicy = r.policy;
    r.cfg.seed = r.seed;
    out = std::move(r);
    return true;
}

bool
SimRequest::validate(std::string &err) const
{
    if (!tenants.empty()) {
        if (!tenant::isBuiltinMix(tenants)) {
            err = "unknown mix '" + tenants +
                  "' (builtin: " + tenant::mixNameList() + ")";
            return false;
        }
        if (!traceDir.empty()) {
            err = "'trace_dir' is not supported with 'tenants'";
            return false;
        }
        // The mix names its own workloads; the single-app coordinates
        // below still validate so defaults stay sane.
    }
    const std::vector<std::string> &names = workloadNames();
    if (std::find(names.begin(), names.end(), workload) == names.end()) {
        err = "unknown workload '" + workload + "' (known: " +
              workloadNameList() + ")";
        return false;
    }
    const std::string cfgErr = cfg.check();
    if (!cfgErr.empty()) {
        err = cfgErr;
        return false;
    }
    return true;
}

std::string
SimRequest::canonical() const
{
    // Run coordinates in fixed order, then the full canonical machine
    // string — every machine field, not just the ones the legacy
    // shortcuts could reach. Two requests meaning the same simulation
    // canonicalize identically however the machine was spelled.
    std::string out =
        logFormat("w=%s m=%d p=%d sc=%d seed=%llu ", workload.c_str(),
                  static_cast<int>(model), static_cast<int>(policy),
                  static_cast<int>(scale),
                  static_cast<unsigned long long>(seed)) +
        canonicalMachine(cfg);
    // Appended only for tenant requests so every pre-existing
    // single-app key is unchanged. The preset label joins because the
    // tenant TSV payload carries it as a column — two requests may
    // only share a cache entry if their payloads are byte-identical.
    if (!tenants.empty())
        out += logFormat(" tenants=%s tpreset=%s", tenants.c_str(),
                         presetName.c_str());
    return out;
}

std::string
SimRequest::key() const
{
    return contentKey(canonical());
}

std::string
SimRequest::toJson() const
{
    // The machine travels as one embedded TOML document instead of the
    // legacy per-field shortcuts: lossless for every machine field the
    // shortcuts cannot reach (the parser still accepts the shortcuts
    // from older clients). Default machines skip the field entirely.
    std::string out = logFormat(
        "{\"op\":\"run\",\"workload\":\"%s\",\"model\":\"%s\","
        "\"policy\":\"%s\",\"scale\":\"%s\",\"seed\":%llu",
        jsonEscape(workload).c_str(), wireName(model),
        wireName(policy), toString(scale),
        static_cast<unsigned long long>(seed));
    // Preset travels by name (it is a label in tenant TSV rows) and
    // the machine still travels as TOML: fromJson applies preset first,
    // then config, so a round-trip reproduces both cfg and the label.
    if (presetName != "k20c")
        out += ",\"preset\":\"" + jsonEscape(presetName) + "\"";
    if (machineHash(cfg) != defaultMachineHash())
        out += ",\"config\":\"" + jsonEscape(emitMachineToml(cfg)) + "\"";
    if (!traceDir.empty())
        out += ",\"trace_dir\":\"" + jsonEscape(traceDir) + "\"";
    if (!tenants.empty())
        out += ",\"tenants\":\"" + jsonEscape(tenants) + "\"";
    out += "}";
    return out;
}

RunFlagMatch
collectRunFlag(int argc, char **argv, int &i, JsonObject &obj,
               std::string &err)
{
    const RunFlag *f = std::find_if(
        std::begin(kRunFlags), std::end(kRunFlags),
        [&](const RunFlag &r) { return !std::strcmp(argv[i], r.flag); });
    if (f == std::end(kRunFlags))
        return RunFlagMatch::None;
    if (i + 1 >= argc) {
        err = logFormat("missing value for %s", f->flag);
        return RunFlagMatch::Error;
    }
    if (obj.count(f->field)) {
        err = logFormat("%s given more than once", f->flag);
        return RunFlagMatch::Error;
    }
    JsonValue v;
    v.type = f->kind == FlagKind::Number ? JsonValue::Type::Number
                                         : JsonValue::Type::String;
    v.str = argv[++i];
    if (f->kind == FlagKind::File) {
        std::ifstream in(v.str, std::ios::binary);
        if (!in) {
            err = "cannot read config file '" + v.str + "'";
            return RunFlagMatch::Error;
        }
        std::ostringstream text;
        text << in.rdbuf();
        v.str = text.str();
    }
    obj[f->field] = std::move(v);
    return RunFlagMatch::Taken;
}

} // namespace serve
} // namespace laperm
