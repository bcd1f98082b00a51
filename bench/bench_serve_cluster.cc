/**
 * @file
 * Wall-clock self-benchmark of the layered serving stack (DESIGN.md
 * §15): assembles in-process clusters — N worker Servers sharing one
 * disk cache tier behind a consistent-hash BalancerHandler fronted by
 * its own Server — for every {unix, tcp} x {1, 2, 4 workers}
 * combination, drives a Zipf-skewed request mix through real client
 * sockets, and writes BENCH_serve_cluster.json with per-configuration
 *   - cold and cached throughput (requests per second),
 *   - the shed rate with half the workers down (structured overloaded
 *     responses for the lost share of the key space),
 *   - the cross-worker cache-hit rate after a simulated worker
 *     restart (every L1 dropped; replays must hit the shared tier).
 *
 * Environment:
 *   LAPERM_BENCH_REQUESTS  Zipf draws per cached phase (default 32)
 *   LAPERM_BENCH_UNIVERSE  distinct requests per cluster (default 16)
 *
 * Exits nonzero if a served payload diverges from the direct run, the
 * overload burst never sheds, or a restart replay finds no shared-tier
 * hit (the cross-worker dedup contract).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hh"
#include "common/text.hh"
#include "common/rng.hh"
#include "harness/experiment.hh"
#include "serve/client.hh"
#include "serve/cluster/balancer.hh"
#include "serve/service/service_handler.hh"
#include "serve/service/sim_request.hh"
#include "serve/session/server.hh"
#include "workloads/registry.hh"

using namespace laperm;
using namespace laperm::serve;

namespace {

std::uint64_t g_requests = 32;
std::uint64_t g_universe = 16;

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

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

Endpoint
benchEndpoint(const std::string &transport, const std::string &tag)
{
    if (transport == "unix")
        return Endpoint::unixAt("bench_cluster_" + tag + ".sock");
    return Endpoint::tcpAt("127.0.0.1", 0); // kernel-assigned port
}

/**
 * One in-process cluster: what `laperm_served --cluster N` builds from
 * processes, built from objects so the bench measures the serving
 * stack, not fork/exec. Workers and the front listen on the transport
 * under test; every byte a client sees crossed a real socket twice.
 */
struct BenchCluster
{
    std::vector<std::unique_ptr<ServiceHandler>> handlers;
    std::vector<std::unique_ptr<Server>> workers;
    std::unique_ptr<BalancerHandler> balancer;
    std::unique_ptr<Server> front;
    Endpoint frontEndpoint;

    BenchCluster(const std::string &transport, std::size_t n,
                 const std::string &cacheDir, ServiceOptions base)
    {
        BalancerOptions bopts;
        for (std::size_t i = 0; i < n; ++i) {
            SessionOptions sopts;
            // Built with += : GCC 12's -Werror=restrict false-positives
            // on the (const char* + string&&) operator+ overload here.
            std::string tag = "w";
            tag += std::to_string(i);
            sopts.endpoint = benchEndpoint(transport, tag);
            ServiceOptions wopts = base;
            wopts.cacheDir = cacheDir;
            handlers.push_back(
                std::make_unique<ServiceHandler>(std::move(wopts)));
            workers.push_back(
                std::make_unique<Server>(sopts, *handlers.back()));
            std::string err;
            if (!workers.back()->start(err)) {
                std::fprintf(stderr, "worker start: %s\n", err.c_str());
                std::exit(1);
            }
            bopts.workers.push_back(workers.back()->boundEndpoint());
        }
        bopts.connectRetries = 4;
        bopts.backoffMs = 20;
        balancer = std::make_unique<BalancerHandler>(std::move(bopts));

        SessionOptions fopts;
        fopts.endpoint = benchEndpoint(transport, "front");
        front = std::make_unique<Server>(fopts, *balancer);
        std::string err;
        if (!front->start(err)) {
            std::fprintf(stderr, "front start: %s\n", err.c_str());
            std::exit(1);
        }
        frontEndpoint = front->boundEndpoint();
    }

    ~BenchCluster()
    {
        if (front)
            front->stop();
        balancer.reset(); // close worker links before the workers go
        for (auto &w : workers)
            w->stop();
    }

    ServiceMetrics aggregate() const
    {
        ServiceMetrics sum;
        for (const auto &h : handlers) {
            const ServiceMetrics m = h->service().metrics();
            sum.requests += m.requests;
            sum.executed += m.executed;
            sum.cacheHits += m.cacheHits;
            sum.cacheMemHits += m.cacheMemHits;
            sum.cacheSharedHits += m.cacheSharedHits;
            sum.shed += m.shed;
        }
        return sum;
    }
};

struct CallResult
{
    std::string status;
    bool cached = false;
    std::string payload;
};

bool
submit(Client &client, const SimRequest &req, CallResult &out,
       std::string &err)
{
    JsonObject resp;
    if (!client.call(req.toJson(), resp, err))
        return false;
    getString(resp, "status", out.status);
    if (resp.count("cached"))
        out.cached = resp.at("cached").boolean;
    getString(resp, "result", out.payload);
    return true;
}

struct PhaseResult
{
    double seconds = 0.0;
    std::uint64_t ok = 0;
    std::uint64_t shed = 0;
    bool identical = true;
};

/** Submit @p seeds through one connection, verifying expectations. */
PhaseResult
drive(const Endpoint &ep, const std::vector<std::uint64_t> &seeds,
      bool expectCached, const std::string &direct1)
{
    PhaseResult r;
    ClientOptions copts;
    copts.endpoint = ep;
    copts.overloadRetries = 0;
    Client client(copts);
    std::string err;
    if (!client.connect(err)) {
        std::fprintf(stderr, "client connect: %s\n", err.c_str());
        r.identical = false;
        return r;
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (const std::uint64_t seed : seeds) {
        CallResult out;
        if (!submit(client, tinyRequest(seed), out, err)) {
            std::fprintf(stderr, "call: %s\n", err.c_str());
            r.identical = false;
            continue;
        }
        if (out.status != kStatusOk) {
            std::fprintf(stderr, "unexpected status %s\n",
                         out.status.c_str());
            r.identical = false;
            continue;
        }
        ++r.ok;
        if (out.cached != expectCached)
            r.identical = false;
        if (seed == 1 && out.payload != direct1) {
            std::fprintf(stderr,
                         "FAIL: served payload differs from direct\n");
            r.identical = false;
        }
    }
    r.seconds = secondsSince(t0);
    return r;
}

struct ConfigResult
{
    std::string transport;
    std::size_t workersN = 0;
    double coldRps = 0.0;
    double cachedRps = 0.0;
    double shedRate = 0.0;
    double crossWorkerHitRate = 0.0;
    std::uint64_t restartSharedHits = 0;
    bool identical = true;
};

ConfigResult
runConfig(const std::string &transport, std::size_t n)
{
    ConfigResult result;
    result.transport = transport;
    result.workersN = n;

    const std::string cacheDir = "bench_cluster_cache.tmp";
    std::filesystem::remove_all(cacheDir);

    // The determinism pin: what a daemon-free run of seed 1 produces.
    const SimRequest probe = tinyRequest(1);
    auto w = createWorkload(probe.workload);
    w->setup(probe.scale, probe.seed);
    const std::string direct1 =
        runOneRecord(*w, probe.cfg, std::string()).encode();

    ServiceOptions base;
    base.jobs = 2;
    base.fingerprint = "bench-cluster";
    base.queueCapacity = g_universe + g_requests;

    {
        BenchCluster cluster(transport, n, cacheDir, base);

        // Phase 1 — cold: every distinct request once.
        std::vector<std::uint64_t> coldSeeds;
        for (std::uint64_t s = 1; s <= g_universe; ++s)
            coldSeeds.push_back(s);
        const PhaseResult cold = drive(cluster.frontEndpoint, coldSeeds,
                                       /*expectCached=*/false, direct1);
        result.identical = result.identical && cold.identical;
        result.coldRps =
            static_cast<double>(cold.ok) / cold.seconds;

        // Phase 2 — cached: a Zipf-skewed replay mix (s = 1.1, the
        // shape bench_serve_cluster pins in the Rng regression test).
        Rng zipf(42);
        std::vector<std::uint64_t> mix;
        for (std::uint64_t i = 0; i < g_requests; ++i)
            mix.push_back(1 + zipf.nextZipf(g_universe, 1.1));
        const PhaseResult cached = drive(cluster.frontEndpoint, mix,
                                         /*expectCached=*/true, direct1);
        result.identical = result.identical && cached.identical;
        result.cachedRps =
            static_cast<double>(cached.ok) / cached.seconds;

        // Phase 3 — restart: drop every worker's L1 (what killing and
        // respawning the processes does) and replay; hits must come
        // off the shared disk tier, proving cross-incarnation dedup.
        const std::uint64_t sharedBefore =
            cluster.aggregate().cacheSharedHits;
        for (auto &h : cluster.handlers)
            h->service().dropMemoryCache();
        const PhaseResult replay = drive(cluster.frontEndpoint, mix,
                                         /*expectCached=*/true, direct1);
        result.identical = result.identical && replay.identical;
        result.restartSharedHits =
            cluster.aggregate().cacheSharedHits - sharedBefore;
        result.crossWorkerHitRate =
            static_cast<double>(result.restartSharedHits) /
            static_cast<double>(replay.ok ? replay.ok : 1);
    }

    // Phase 4 — shed: fresh cluster with the upper half of its workers
    // taken down (all of them when n == 1). The balancer's per-worker
    // link serializes requests, so worker admission never overflows
    // through it; the cluster-level shedding path is worker LOSS —
    // requests whose keys land on a downed worker degrade to the
    // structured overloaded response after the reconnect budget, while
    // survivors keep serving their share of the key space.
    {
        std::filesystem::remove_all(cacheDir);
        BenchCluster cluster(transport, n, cacheDir, base);
        for (std::size_t i = n / 2; i < n; ++i)
            cluster.workers[i]->stop();

        const std::uint64_t burst = g_universe;
        std::vector<std::string> statuses(burst);
        std::vector<std::thread> threads;
        for (std::uint64_t i = 0; i < burst; ++i) {
            threads.emplace_back([&, i] {
                ClientOptions copts;
                copts.endpoint = cluster.frontEndpoint;
                copts.overloadRetries = 0;
                Client client(copts);
                std::string err;
                CallResult out;
                if (client.connect(err) &&
                    submit(client, tinyRequest(5000 + i), out, err))
                    statuses[i] = out.status;
            });
        }
        for (auto &t : threads)
            t.join();
        std::uint64_t shed = 0;
        for (const std::string &s : statuses)
            shed += (s == kStatusOverloaded);
        result.shedRate = static_cast<double>(shed) /
                          static_cast<double>(burst);
    }
    std::filesystem::remove_all(cacheDir);
    return result;
}

} // namespace

int
main()
{
    setVerbose(false);
    g_requests =
        envCount("LAPERM_BENCH_REQUESTS", UINT64_MAX, g_requests);
    g_universe =
        envCount("LAPERM_BENCH_UNIVERSE", UINT64_MAX, g_universe);

    std::vector<ConfigResult> results;
    for (const char *transport : {"unix", "tcp"}) {
        for (const std::size_t n : {std::size_t(1), std::size_t(2),
                                    std::size_t(4)}) {
            results.push_back(runConfig(transport, n));
            const ConfigResult &r = results.back();
            std::printf("%-4s x%zu: cold %.1f req/s, cached %.1f "
                        "req/s, shed %.2f, cross-worker hits %.2f\n",
                        r.transport.c_str(), r.workersN, r.coldRps,
                        r.cachedRps, r.shedRate,
                        r.crossWorkerHitRate);
        }
    }

    bool ok = true;
    std::ofstream json("BENCH_serve_cluster.json");
    json << "{\n"
         << "  \"bench\": \"serve_cluster\",\n"
         << "  \"requests\": " << g_requests << ",\n"
         << "  \"universe\": " << g_universe << ",\n"
         << "  \"configs\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const ConfigResult &r = results[i];
        if (!r.identical || r.restartSharedHits == 0 ||
            r.shedRate <= 0.0)
            ok = false;
        json << "    {\"transport\": \"" << r.transport
             << "\", \"workers\": " << r.workersN
             << ", \"req_per_sec_cold\": " << r.coldRps
             << ", \"req_per_sec_cached\": " << r.cachedRps
             << ", \"shed_rate\": " << r.shedRate
             << ", \"cross_worker_hit_rate\": " << r.crossWorkerHitRate
             << ", \"restart_shared_hits\": " << r.restartSharedHits
             << ", \"payload_identical\": "
             << (r.identical ? "true" : "false") << "}"
             << (i + 1 < results.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    json.close();
    std::printf("  wrote BENCH_serve_cluster.json\n");

    if (!ok) {
        std::fprintf(stderr, "FAIL: cluster bench contract violated "
                             "(identity, shared hits, or shedding)\n");
        return 1;
    }
    return 0;
}
