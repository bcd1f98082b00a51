/**
 * @file
 * One parser per run field (DESIGN.md §10.2): the command-line run
 * flags of laperm_sim and laperm_submit become a wire request through
 * collectRunFlag() and SimRequest::fromJson(), so a flag and its JSON
 * spelling name the same run, argv order never changes the machine,
 * and every enum has one parser and one name.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "serve/service/protocol.hh"
#include "serve/service/sim_request.hh"
#include "sim/config.hh"
#include "sim/config_loader.hh"
#include "workloads/workload.hh"

using namespace laperm;
using namespace laperm::serve;

namespace {

/**
 * Parse @p args the way both CLIs do: every argument must be a run
 * flag, then fromJson() and validate() decide. False with @p err set
 * on any rejection.
 */
bool
fromArgs(const std::vector<std::string> &args, SimRequest &out,
         std::string &err)
{
    std::vector<char *> argv{const_cast<char *>("tool")};
    for (const std::string &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    const int argc = static_cast<int>(argv.size());
    JsonObject obj;
    for (int i = 1; i < argc; ++i) {
        const RunFlagMatch m =
            collectRunFlag(argc, argv.data(), i, obj, err);
        if (m == RunFlagMatch::Error)
            return false;
        if (m == RunFlagMatch::None) {
            err = "not a run flag: " + args[static_cast<std::size_t>(i - 1)];
            return false;
        }
    }
    return SimRequest::fromJson(obj, out, err) && out.validate(err);
}

SimRequest
fromArgsOk(const std::vector<std::string> &args)
{
    SimRequest r;
    std::string err;
    EXPECT_TRUE(fromArgs(args, r, err)) << err;
    return r;
}

SimRequest
fromWire(const std::string &json)
{
    JsonObject obj;
    std::string err;
    SimRequest r;
    EXPECT_TRUE(parseJsonObject(json, obj, err)) << err;
    EXPECT_TRUE(SimRequest::fromJson(obj, r, err)) << json << ": " << err;
    return r;
}

/** Machine TOML written to a temporary file for --config. */
std::string
configFile(const std::string &name, const std::string &toml)
{
    const std::string path =
        ::testing::TempDir() + "laperm_run_flags_" + name + ".toml";
    std::ofstream(path, std::ios::binary) << toml;
    return path;
}

} // namespace

TEST(RunFlags, EveryFlagMatchesItsWireSpelling)
{
    const std::string toml = "num_smx = 8\nl2_banks = 4\n";
    struct Case
    {
        std::vector<std::string> args;
        std::string json;
    };
    const Case cases[] = {
        {{"--workload", "bfs-cage"}, R"({"workload":"bfs-cage"})"},
        {{"--model", "cdp"}, R"({"model":"cdp"})"},
        {{"--policy", "smxbind"}, R"({"policy":"smxbind"})"},
        {{"--scale", "tiny"}, R"({"scale":"tiny"})"},
        {{"--seed", "7"}, R"({"seed":7})"},
        {{"--preset", "v100"}, R"({"preset":"v100"})"},
        {{"--config", configFile("every", toml)},
         R"({"config":")" + jsonEscape(toml) + "\"}"},
        {{"--smx", "8"}, R"({"smx":8})"},
        {{"--l1-kb", "16"}, R"({"l1_kb":16})"},
        {{"--l2-kb", "768"}, R"({"l2_kb":768})"},
        {{"--levels", "2"}, R"({"levels":2})"},
        {{"--cdp-latency", "4000"}, R"({"cdp_latency":4000})"},
        {{"--dtbl-latency", "300"}, R"({"dtbl_latency":300})"},
        {{"--warp-sched", "lrr"}, R"({"warp_sched":"lrr"})"},
        {{"--trace-dir", "traces"}, R"({"trace_dir":"traces"})"},
        {{"--tenants", "duo"}, R"({"tenants":"duo"})"},
    };
    const SimRequest def = fromWire("{}");
    for (const Case &c : cases) {
        SCOPED_TRACE(c.args[0]);
        const SimRequest flag = fromArgsOk(c.args);
        const SimRequest wire = fromWire(c.json);
        EXPECT_EQ(flag.canonical(), wire.canonical());
        // toJson also carries trace_dir, which is not in the key.
        EXPECT_EQ(flag.toJson(), wire.toJson());
        EXPECT_NE(flag.toJson(), def.toJson()) << "flag had no effect";
    }
}

TEST(RunFlags, ArgvOrderDoesNotChangeTheMachine)
{
    // Machine flags apply in the wire's fixed order — preset, config,
    // single fields — so a shortcut before --preset still wins.
    const std::string cfg = configFile("order", "l2_banks = 4\n");
    const std::vector<std::string> forward = {
        "--preset", "v100", "--config",     cfg,   "--smx",    "8",
        "--l1-kb",  "16",   "--warp-sched", "lrr", "--scale",  "tiny",
        "--policy", "adaptive"};
    const std::vector<std::string> backward = {
        "--policy", "adaptive", "--scale",  "tiny", "--warp-sched", "lrr",
        "--l1-kb",  "16",       "--smx",    "8",    "--config",     cfg,
        "--preset", "v100"};
    const SimRequest a = fromArgsOk(forward);
    const SimRequest b = fromArgsOk(backward);
    EXPECT_EQ(a.canonical(), b.canonical());
    EXPECT_EQ(b.cfg.numSmx, 8u);
    EXPECT_EQ(b.cfg.l1Size, 16u * 1024u);
    EXPECT_EQ(b.cfg.l2Banks, 4u);
    EXPECT_EQ(b.cfg.warpPolicy, WarpPolicy::LRR);
    EXPECT_EQ(b.presetName, "v100");

    EXPECT_EQ(fromArgsOk({"--smx", "8", "--preset", "v100"}).canonical(),
              fromWire(R"({"smx":8,"preset":"v100"})").canonical());
}

TEST(RunFlags, RejectsRepeatsOversizedCachesAndUppercase)
{
    struct Case
    {
        std::vector<std::string> args;
        const char *needle; ///< must appear in the message
    };
    const Case cases[] = {
        {{"--smx", "4", "--smx", "8"}, "--smx given more than once"},
        {{"--config", configFile("a", ""), "--config",
          configFile("b", "")},
         "--config given more than once"},
        {{"--l1-kb", "4194304"}, "l1_kb"},
        {{"--l2-kb", "4194304"}, "l2_kb"},
        {{"--l1-kb", "4194305"}, "l1_kb"},
        {{"--scale", "SMALL"}, "scale"},
        {{"--policy", "RR"}, "policy"},
        {{"--seed", "-1"}, "seed"},
        {{"--smx"}, "missing value for --smx"},
        {{"--config", ::testing::TempDir() + "no_such_dir/m.toml"},
         "cannot read config file"},
        {{"--config", configFile("bad", "warp_count = 9\n")},
         "warp_count"},
        {{"--workload", "nope"}, "unknown workload 'nope'"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.args[0]);
        SimRequest r;
        std::string err;
        EXPECT_FALSE(fromArgs(c.args, r, err));
        EXPECT_NE(err.find(c.needle), std::string::npos) << err;
    }
    // The largest size that fits in 32-bit bytes is accepted.
    EXPECT_EQ(fromArgsOk({"--l1-kb", "4194303"}).cfg.l1Size,
              4194303u * 1024u);
}

TEST(RunFlags, OnlyRunFlagsAreTaken)
{
    char tool[] = "tool", csv[] = "--csv", smx[] = "--smx", n[] = "8";
    char *argv[] = {tool, csv, smx, n};
    JsonObject obj;
    std::string err;
    int i = 1;
    EXPECT_EQ(collectRunFlag(4, argv, i, obj, err), RunFlagMatch::None);
    EXPECT_EQ(i, 1);
    EXPECT_TRUE(obj.empty());
    i = 2;
    EXPECT_EQ(collectRunFlag(4, argv, i, obj, err), RunFlagMatch::Taken);
    EXPECT_EQ(i, 3);
    ASSERT_EQ(obj.count("smx"), 1u);
    EXPECT_EQ(obj.at("smx").type, JsonValue::Type::Number);
    EXPECT_EQ(obj.at("smx").str, "8");
}

TEST(RunFlags, TbAwareIsAcceptedEverywhere)
{
    EXPECT_EQ(fromArgsOk({"--warp-sched", "tbaware"}).cfg.warpPolicy,
              WarpPolicy::TbAware);
    EXPECT_EQ(fromWire(R"({"warp_sched":"tbaware"})").cfg.warpPolicy,
              WarpPolicy::TbAware);
    GpuConfig cfg;
    std::string err;
    ASSERT_TRUE(parseMachineToml("warp_sched = \"tbaware\"\n", cfg, err))
        << err;
    EXPECT_EQ(cfg.warpPolicy, WarpPolicy::TbAware);
}

TEST(RunFlags, EveryEnumRoundTripsThroughItsWireName)
{
    for (DynParModel m : {DynParModel::CDP, DynParModel::DTBL}) {
        DynParModel back = m == DynParModel::CDP ? DynParModel::DTBL
                                                 : DynParModel::CDP;
        EXPECT_TRUE(parseModel(wireName(m), back)) << wireName(m);
        EXPECT_EQ(back, m);
    }
    for (TbPolicy p : {TbPolicy::RR, TbPolicy::TbPri, TbPolicy::SmxBind,
                       TbPolicy::AdaptiveBind}) {
        TbPolicy back = p == TbPolicy::RR ? TbPolicy::TbPri : TbPolicy::RR;
        EXPECT_TRUE(parsePolicy(wireName(p), back)) << wireName(p);
        EXPECT_EQ(back, p);
    }
    for (WarpPolicy w :
         {WarpPolicy::GTO, WarpPolicy::LRR, WarpPolicy::TbAware}) {
        WarpPolicy back =
            w == WarpPolicy::GTO ? WarpPolicy::LRR : WarpPolicy::GTO;
        EXPECT_TRUE(parseWarpPolicy(wireName(w), back)) << wireName(w);
        EXPECT_EQ(back, w);
    }
    for (Scale s : {Scale::Tiny, Scale::Small, Scale::Full, Scale::Huge}) {
        Scale back = s == Scale::Tiny ? Scale::Small : Scale::Tiny;
        EXPECT_TRUE(parseScale(toString(s), back)) << toString(s);
        EXPECT_EQ(back, s);
    }

    // "laperm" is an alias, never a name; names are exact lowercase
    // and a rejected spelling leaves the output untouched.
    TbPolicy p = TbPolicy::RR;
    EXPECT_TRUE(parsePolicy("laperm", p));
    EXPECT_EQ(p, TbPolicy::AdaptiveBind);
    EXPECT_STREQ(wireName(TbPolicy::AdaptiveBind), "adaptive");
    Scale s = Scale::Full;
    EXPECT_FALSE(parseScale("Tiny", s));
    EXPECT_FALSE(parseScale("", s));
    EXPECT_EQ(s, Scale::Full);
    DynParModel m = DynParModel::CDP;
    EXPECT_FALSE(parseModel("DTBL", m));
    EXPECT_EQ(m, DynParModel::CDP);
}
