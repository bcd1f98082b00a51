/**
 * @file
 * Golden-record oracle for the simulation loop (DESIGN.md §11): the
 * canonical result records of a fixed tiny-scale cell set must match a
 * checked-in table byte for byte. Any change to simulated timing —
 * intended or not — shows up here as the first differing line. The
 * table is the product of the engine as it stood when the table was
 * written; a change that is meant to move results replaces it in the
 * same commit and says why.
 *
 * Cells: bfs-citation (launch-heavy) and chase-ring (stall-heavy)
 * under every policy and both dynamic-parallelism models, plus the
 * duo mix study under every policy, whose tenant manager drives the
 * device in Gpu::runUntil slices separated by advanceTo gaps.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/tenant_sweep.hh"
#include "test_util.hh"
#include "workloads/registry.hh"

using namespace laperm;
using namespace laperm::test;

namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kSeed = 3;

/** Non-empty, non-comment lines of @p text. */
std::vector<std::string>
recordLines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line[0] != '#')
            out.push_back(line);
    }
    return out;
}

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** The golden cell set, one canonical line per record. */
std::vector<std::string>
actualLines()
{
    std::vector<std::string> out;
    for (const char *name : {"bfs-citation", "chase-ring"}) {
        auto w = createWorkload(name);
        w->setup(Scale::Tiny, kSeed);
        TraceCache traces;
        for (DynParModel model : {DynParModel::CDP, DynParModel::DTBL}) {
            for (TbPolicy policy :
                 {TbPolicy::RR, TbPolicy::TbPri, TbPolicy::SmxBind,
                  TbPolicy::AdaptiveBind}) {
                GpuConfig cfg = paperConfig();
                cfg.dynParModel = model;
                cfg.tbPolicy = policy;
                cfg.seed = kSeed;
                out.push_back(
                    runOneRecord(*w, cfg, "", &traces).encode());
            }
        }
    }
    for (const std::string &line : recordLines(encodeTenantSweepTsv(
             runTenantSweep({"duo"}, {"k20c"}, kSeed, false, 1))))
        out.push_back(line);
    return out;
}

} // namespace

TEST(GoldenRecords, CellSetMatchesCheckedInTable)
{
    const std::vector<std::string> expected = recordLines(
        slurp(fs::path(LAPERM_TEST_DATA_DIR) / "golden_records.txt"));
    const std::vector<std::string> actual = actualLines();
    EXPECT_EQ(expected.size(), actual.size());
    for (std::size_t i = 0; i < actual.size(); ++i) {
        if (i >= expected.size() || expected[i] != actual[i]) {
            ADD_FAILURE() << "record " << i << " differs\n  expected: "
                          << (i < expected.size() ? expected[i] : "<none>")
                          << "\n  actual:   " << actual[i];
        }
    }
}

TEST(GoldenRecords, SweepTsvMatchesAcrossJobCounts)
{
    const std::vector<std::string> names = {"bfs-citation"};
    std::vector<std::string> tsvs;
    for (unsigned jobs : {1u, 8u}) {
        const std::string cacheDir = ::testing::TempDir() +
                                     "laperm_golden_sweep_" +
                                     std::to_string(jobs);
        fs::remove_all(cacheDir);
        fs::create_directories(cacheDir);
        ScopedEnv cache("LAPERM_CACHE_DIR", cacheDir.c_str());
        ScopedEnv nocache("LAPERM_NO_CACHE", nullptr);
        EXPECT_FALSE(runMatrix(names, Scale::Tiny, kSeed, true, jobs).empty());
        tsvs.push_back(slurp(sweepCachePath(Scale::Tiny, kSeed)));
    }
    EXPECT_FALSE(tsvs[0].empty());
    EXPECT_EQ(tsvs[0], tsvs[1]);
}
