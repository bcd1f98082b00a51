/**
 * @file
 * Cluster-layer tests (DESIGN.md §15.4): consistent-hash ring
 * determinism, distribution and resize stability, and an in-process
 * balancer over two real worker Servers — routing stability, verbatim
 * run forwarding, stats aggregation, shutdown fan-out, the structured
 * overload response for an unreachable worker, and bounded-load
 * routing: home placement when idle, spill when the home is busy, and
 * cluster-wide single-flight for identical runs.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.hh"
#include "serve/client.hh"
#include "serve/cluster/balancer.hh"
#include "serve/cluster/hash_ring.hh"
#include "serve/service/service_handler.hh"
#include "serve/service/sim_request.hh"
#include "serve/session/server.hh"
#include "sim/presets.hh"

using namespace laperm;
using namespace laperm::serve;

namespace {

std::string
tempDir(const std::string &name)
{
    const std::string dir =
        ::testing::TempDir() + "laperm_cluster_" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

SimRequest
tinyRequest(std::uint64_t seed)
{
    SimRequest req;
    req.workload = "bfs-cage";
    req.scale = Scale::Tiny;
    req.seed = seed;
    req.cfg = paperConfig();
    req.cfg.dynParModel = req.model;
    req.cfg.tbPolicy = req.policy;
    req.cfg.seed = seed;
    return req;
}

ServiceOptions
workerOptions(const std::string &cacheDir)
{
    ServiceOptions o;
    o.jobs = 2;
    o.cacheDir = cacheDir;
    o.fingerprint = "fp-cluster";
    return o;
}

/**
 * In-process cluster: N worker Servers on ephemeral-path UDS
 * endpoints, one BalancerHandler routing onto them. What laperm_served
 * --cluster assembles from processes, built from objects.
 */
struct MiniCluster
{
    std::vector<std::unique_ptr<ServiceHandler>> handlers;
    std::vector<std::unique_ptr<Server>> servers;
    std::unique_ptr<BalancerHandler> balancer;

    MiniCluster(std::size_t n, const ServiceOptions &wopts,
                const std::string &tag)
    {
        BalancerOptions bopts;
        for (std::size_t i = 0; i < n; ++i) {
            SessionOptions sopts;
            sopts.endpoint = Endpoint::unixAt(
                ::testing::TempDir() + "laperm_mc_" + tag + "_" +
                std::to_string(i) + ".sock");
            handlers.push_back(std::make_unique<ServiceHandler>(wopts));
            servers.push_back(
                std::make_unique<Server>(sopts, *handlers.back()));
            std::string err;
            EXPECT_TRUE(servers.back()->start(err)) << err;
            bopts.workers.push_back(sopts.endpoint);
        }
        // Tests that take a worker down shouldn't wait out the full
        // respawn-sized budget.
        bopts.connectRetries = 2;
        bopts.backoffMs = 10;
        balancer = std::make_unique<BalancerHandler>(std::move(bopts));
    }

    ~MiniCluster()
    {
        for (auto &s : servers)
            s->stop();
    }
};

} // namespace

// ---------------------------------------------------------- hash ring

TEST(HashRing, DeterministicAcrossInstances)
{
    const HashRing a(4), b(4);
    EXPECT_EQ(a.points(), 4u * 64u);
    for (int i = 0; i < 200; ++i) {
        const std::string key = "key-" + std::to_string(i);
        EXPECT_EQ(a.workerFor(key), b.workerFor(key)) << key;
    }
}

TEST(HashRing, SpreadsKeysAcrossAllWorkers)
{
    const std::size_t n = 4;
    const HashRing ring(n);
    std::map<std::size_t, int> counts;
    const int keys = 4000;
    for (int i = 0; i < keys; ++i)
        ++counts[ring.workerFor("content-key-" + std::to_string(i))];
    ASSERT_EQ(counts.size(), n); // every worker owns some keys
    for (const auto &kv : counts) {
        // 64 vnodes keep the imbalance well under 2x of fair share.
        EXPECT_GT(kv.second, keys / static_cast<int>(n) / 2);
        EXPECT_LT(kv.second, keys * 2 / static_cast<int>(n));
    }
}

TEST(HashRing, ResizeMovesOnlyAFractionOfTheKeySpace)
{
    // The consistent-hashing contract: growing 3 -> 4 workers remaps
    // roughly 1/4 of keys, not all of them. That is what keeps worker
    // L1 caches warm across a cluster resize.
    const HashRing before(3), after(4);
    const int keys = 4000;
    int moved = 0;
    for (int i = 0; i < keys; ++i) {
        const std::string key = "content-key-" + std::to_string(i);
        moved += (before.workerFor(key) != after.workerFor(key));
    }
    EXPECT_GT(moved, 0);
    EXPECT_LT(moved, keys / 2); // ~1000 expected; far below a reshuffle
}

TEST(HashRing, PreferenceWalkStartsAtTheOwnerAndListsEveryWorkerOnce)
{
    for (std::size_t n : {1u, 2u, 3u, 4u, 7u}) {
        const HashRing a(n), b(n);
        for (int i = 0; i < 200; ++i) {
            const std::string key = "content-key-" + std::to_string(i);
            const std::vector<std::size_t> order = a.preference(key);
            ASSERT_EQ(order.size(), n) << key;
            EXPECT_EQ(order.front(), a.workerFor(key)) << key;
            EXPECT_EQ(std::set<std::size_t>(order.begin(), order.end())
                          .size(),
                      n)
                << key;
            EXPECT_EQ(order, b.preference(key)) << key;
        }
    }
}

TEST(HashRing, SingleWorkerOwnsEverything)
{
    const HashRing ring(1);
    for (int i = 0; i < 50; ++i) {
        // Built with += : GCC 12's -Werror=restrict false-positives on
        // the (const char* + string&&) operator+ overload here.
        std::string key = "k";
        key += std::to_string(i);
        EXPECT_EQ(ring.workerFor(key), 0u) << key;
    }
}

// ------------------------------------------------------ balancer

TEST(ClusterBalancer, RunRoutesByKeyAndForwardsVerbatim)
{
    const std::string cacheDir = tempDir("route");
    MiniCluster cluster(2, workerOptions(cacheDir), "route");

    // A direct single-service run of the same request pins the
    // expected response bytes (same cache dir must not be shared, so
    // use a fresh one).
    ServiceHandler direct(workerOptions(tempDir("route_direct")));
    const SimRequest req = tinyRequest(7);
    const std::string expected = direct.handleLine(req.toJson());

    // Cold through the balancer: byte-identical except cached flag...
    const std::string cold = cluster.balancer->handleLine(req.toJson());
    EXPECT_EQ(cold, expected);
    // ...and the warm replay only flips "cached" to true.
    const std::string warm = cluster.balancer->handleLine(req.toJson());
    JsonObject obj;
    std::string err, s;
    ASSERT_TRUE(parseJsonObject(warm, obj, err)) << err;
    ASSERT_TRUE(getString(obj, "status", s));
    EXPECT_EQ(s, kStatusOk);
    EXPECT_EQ(obj.at("cached").type, JsonValue::Type::Bool);
    EXPECT_TRUE(obj.at("cached").boolean);

    // Exactly one worker executed it — the ring sent both calls to
    // the same place.
    std::uint64_t executed = 0;
    for (auto &h : cluster.handlers)
        executed += h->service().metrics().executed;
    EXPECT_EQ(executed, 1u);
}

TEST(ClusterBalancer, StatsAggregateAcrossWorkersAndCountThem)
{
    MiniCluster cluster(2, workerOptions(tempDir("stats")), "stats");

    // Seed distinct requests until both workers have executed work.
    std::set<std::size_t> hit;
    const HashRing ring(2);
    for (std::uint64_t seed = 1; hit.size() < 2 && seed < 64; ++seed) {
        const SimRequest req = tinyRequest(seed);
        if (!hit.insert(ring.workerFor(req.key())).second)
            continue;
        const std::string resp =
            cluster.balancer->handleLine(req.toJson());
        ASSERT_NE(resp.find(kStatusOk), std::string::npos) << resp;
    }
    ASSERT_EQ(hit.size(), 2u);

    JsonObject obj;
    std::string err;
    ASSERT_TRUE(parseJsonObject(
        cluster.balancer->handleLine(R"({"op":"stats"})"), obj, err))
        << err;
    std::uint64_t n = 0;
    ASSERT_TRUE(getU64(obj, "workers", n));
    EXPECT_EQ(n, 2u);
    ASSERT_TRUE(getU64(obj, "executed", n));
    EXPECT_EQ(n, 2u); // summed over both workers
    ASSERT_TRUE(getU64(obj, "requests", n));
    EXPECT_EQ(n, 2u);
    std::string fp;
    ASSERT_TRUE(getString(obj, "fingerprint", fp));
    EXPECT_EQ(fp, "fp-cluster");
}

TEST(ClusterBalancer, PingProxiesAndShutdownFansOut)
{
    MiniCluster cluster(2, workerOptions(tempDir("lifecycle")),
                        "lifecycle");

    JsonObject obj;
    std::string err, s;
    ASSERT_TRUE(parseJsonObject(
        cluster.balancer->handleLine(R"({"op":"ping"})"), obj, err))
        << err;
    ASSERT_TRUE(getString(obj, "status", s));
    EXPECT_EQ(s, kStatusOk);
    ASSERT_TRUE(getString(obj, "fingerprint", s));
    EXPECT_EQ(s, "fp-cluster");

    ASSERT_TRUE(parseJsonObject(
        cluster.balancer->handleLine(R"({"op":"shutdown"})"), obj, err))
        << err;
    ASSERT_TRUE(getString(obj, "status", s));
    EXPECT_EQ(s, kStatusOk);
    // Every worker's session saw the shutdown verb.
    for (auto &srv : cluster.servers)
        EXPECT_TRUE(srv->waitShutdown(10000));
}

TEST(ClusterBalancer, UnreachableWorkerDegradesToStructuredOverload)
{
    const std::string cacheDir = tempDir("downed");
    MiniCluster cluster(2, workerOptions(cacheDir), "downed");

    // Find a request owned by worker 0, then take worker 0 down.
    const HashRing ring(2);
    std::uint64_t seed = 1;
    while (ring.workerFor(tinyRequest(seed).key()) != 0)
        ++seed;
    cluster.servers[0]->stop();

    const std::string resp =
        cluster.balancer->handleLine(tinyRequest(seed).toJson());
    JsonObject obj;
    std::string err, s;
    ASSERT_TRUE(parseJsonObject(resp, obj, err)) << err << ": " << resp;
    ASSERT_TRUE(getString(obj, "status", s));
    EXPECT_EQ(s, kStatusOverloaded);
    std::uint64_t retryMs = 0;
    EXPECT_TRUE(getU64(obj, "retry_ms", retryMs));
    EXPECT_GT(retryMs, 0u);

    // The other worker keeps serving its share of the key space.
    while (ring.workerFor(tinyRequest(seed).key()) != 1)
        ++seed;
    const std::string ok =
        cluster.balancer->handleLine(tinyRequest(seed).toJson());
    ASSERT_TRUE(parseJsonObject(ok, obj, err)) << err;
    ASSERT_TRUE(getString(obj, "status", s));
    EXPECT_EQ(s, kStatusOk);
}

// ------------------------------------------------ bounded-load routing

namespace {

/** Per-worker executed counts of @p cluster. */
std::vector<std::uint64_t>
executedPerWorker(MiniCluster &cluster)
{
    std::vector<std::uint64_t> out;
    for (auto &h : cluster.handlers)
        out.push_back(h->service().metrics().executed);
    return out;
}

std::uint64_t
statsField(MiniCluster &cluster, const char *field)
{
    JsonObject obj;
    std::string err;
    EXPECT_TRUE(parseJsonObject(
        cluster.balancer->handleLine(R"({"op":"stats"})"), obj, err))
        << err;
    std::uint64_t v = 0;
    EXPECT_TRUE(getU64(obj, field, v)) << field;
    return v;
}

/** Run each of @p lines through the balancer on its own thread. */
std::vector<std::string>
concurrently(MiniCluster &cluster, const std::vector<std::string> &lines)
{
    std::vector<std::string> out(lines.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        threads.emplace_back(
            [&, i] { out[i] = cluster.balancer->handleLine(lines[i]); });
    }
    for (auto &t : threads)
        t.join();
    return out;
}

} // namespace

TEST(ClusterBalancer, IdleClusterRunsEveryKeyOnItsRingOwner)
{
    MiniCluster cluster(2, workerOptions(tempDir("home")), "home");
    const HashRing ring(2);
    std::vector<std::uint64_t> expected(2, 0);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const SimRequest req = tinyRequest(seed);
        const std::string resp =
            cluster.balancer->handleLine(req.toJson());
        ASSERT_NE(resp.find(kStatusOk), std::string::npos) << resp;
        ++expected[ring.workerFor(req.key())];
        EXPECT_EQ(executedPerWorker(cluster), expected) << seed;
    }
    EXPECT_EQ(statsField(cluster, "routed_spill"), 0u);
}

TEST(ClusterBalancer, BusyHomeSpillsAConcurrentColdRunToTheIdleWorker)
{
    // Two one-thread workers, each run held for kDelayMs. Two distinct
    // keys with the same home: routed by key alone, the second would
    // wait a full run behind the first on the home's link.
    constexpr std::uint64_t kDelayMs = 500;
    ServiceOptions wopts = workerOptions(tempDir("spill"));
    wopts.jobs = 1;
    wopts.testExecDelayMs = kDelayMs;
    MiniCluster cluster(2, wopts, "spill");

    const HashRing ring(2);
    const std::size_t home = ring.workerFor(tinyRequest(1).key());
    std::uint64_t other = 2;
    while (ring.workerFor(tinyRequest(other).key()) != home)
        ++other;

    const auto start = std::chrono::steady_clock::now();
    const std::vector<std::string> resp = concurrently(
        cluster, {tinyRequest(1).toJson(), tinyRequest(other).toJson()});
    const auto elapsedMs =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();

    for (const std::string &r : resp)
        EXPECT_NE(r.find(kStatusOk), std::string::npos) << r;
    EXPECT_EQ(executedPerWorker(cluster),
              (std::vector<std::uint64_t>{1, 1}));
    // Queued on one link the pair takes at least two delays.
    EXPECT_LT(elapsedMs, static_cast<long long>(2 * kDelayMs));
    EXPECT_EQ(statsField(cluster, "routed_spill"), 1u);
}

TEST(ClusterBalancer, ConcurrentIdenticalRunsExecuteOnceClusterWide)
{
    constexpr std::uint64_t kDelayMs = 300;
    ServiceOptions wopts = workerOptions(tempDir("single"));
    wopts.jobs = 1;
    wopts.testExecDelayMs = kDelayMs;
    MiniCluster cluster(2, wopts, "single");

    const std::string line = tinyRequest(3).toJson();
    const std::vector<std::string> resp =
        concurrently(cluster, std::vector<std::string>(4, line));

    std::set<std::string> results;
    for (const std::string &r : resp) {
        JsonObject obj;
        std::string err, s;
        ASSERT_TRUE(parseJsonObject(r, obj, err)) << err << ": " << r;
        ASSERT_TRUE(getString(obj, "status", s));
        EXPECT_EQ(s, kStatusOk);
        ASSERT_TRUE(getString(obj, "result", s));
        results.insert(s);
    }
    EXPECT_EQ(results.size(), 1u);
    const std::vector<std::uint64_t> executed = executedPerWorker(cluster);
    EXPECT_EQ(executed[0] + executed[1], 1u);
    EXPECT_EQ(statsField(cluster, "routed_spill"), 0u);
    // The three followers queued on the owner's link behind the run.
    EXPECT_GE(statsField(cluster, "link_wait_us"), kDelayMs * 1000 / 2);
}

TEST(ClusterBalancer, RunsNeverSpillOntoAnUnreachableWorker)
{
    ServiceOptions wopts = workerOptions(tempDir("nospill"));
    wopts.jobs = 1;
    wopts.testExecDelayMs = 200;
    MiniCluster cluster(2, wopts, "nospill");
    const HashRing ring(2);
    std::vector<std::uint64_t> onHome0;
    std::uint64_t onHome1 = 0;
    for (std::uint64_t seed = 1; onHome0.size() < 2 || !onHome1; ++seed) {
        if (ring.workerFor(tinyRequest(seed).key()) == 0)
            onHome0.push_back(seed);
        else
            onHome1 = seed;
    }

    // Worker 1 goes down, and a run it owns finds that out.
    cluster.servers[1]->stop();
    std::string resp =
        cluster.balancer->handleLine(tinyRequest(onHome1).toJson());
    ASSERT_NE(resp.find(kStatusOverloaded), std::string::npos) << resp;

    // Two concurrent runs homed on worker 0: the second queues there
    // rather than spilling onto the dead worker and being shed.
    const std::vector<std::string> both = concurrently(
        cluster, {tinyRequest(onHome0[0]).toJson(),
                  tinyRequest(onHome0[1]).toJson()});
    for (const std::string &r : both)
        EXPECT_NE(r.find(kStatusOk), std::string::npos) << r;
    EXPECT_EQ(executedPerWorker(cluster)[0], 2u);
    EXPECT_EQ(statsField(cluster, "routed_spill"), 0u);
}
