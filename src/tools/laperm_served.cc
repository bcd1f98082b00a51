/**
 * @file
 * Simulation-serving daemon (DESIGN.md §10, §15): listens on a Unix or
 * TCP endpoint, runs simulation requests on a thread pool behind a
 * tiered (memory + shared disk) fingerprint-gated result cache, and
 * answers with canonical result records. Pair with laperm_submit.
 *
 * Usage:
 *   laperm_served [options]
 *     --listen ENDPOINT    unix:PATH | tcp:HOST:PORT
 *                          (default unix:laperm_served.sock)
 *     --cluster N          supervise N worker daemons on derived
 *                          endpoints and balance requests onto them by
 *                          consistent hash of the content key
 *     --jobs N             worker threads (default: hardware)
 *     --queue-capacity N   admission bound before shedding (default 64)
 *     --timeout-ms N       per-request waiter bound (default 120000)
 *     --cache-dir DIR      result cache root (default $LAPERM_CACHE_DIR
 *                          or ./cache); cluster workers always share it
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/log.hh"
#include "common/text.hh"
#include "harness/result_cache.hh"
#include "serve/cluster/balancer.hh"
#include "serve/cluster/supervisor.hh"
#include "serve/service/service_handler.hh"
#include "serve/session/server.hh"

using namespace laperm;
using namespace laperm::serve;

namespace {

std::atomic<bool> g_interrupted{false};

void
onSignal(int)
{
    g_interrupted.store(true);
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--listen ENDPOINT] "
                 "[--cluster N] [--jobs N] [--queue-capacity N] "
                 "[--timeout-ms N] [--cache-dir DIR]\n",
                 argv0);
    std::exit(2);
}

std::string
selfExePath(const char *argv0)
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
    return argv0;
}

int
runSingle(const SessionOptions &session, ServiceOptions service)
{
    ServiceHandler handler(std::move(service));
    Server server(session, handler);
    std::string err;
    if (!server.start(err)) {
        std::fprintf(stderr, "laperm_served: %s\n", err.c_str());
        return 1;
    }
    // stdout marker the smoke scripts and operators wait for.
    std::printf("laperm_served listening on %s (fingerprint %s)\n",
                server.boundEndpoint().toString().c_str(),
                handler.service().fingerprint().c_str());
    std::fflush(stdout);

    // Poll so an OS signal (flag set by the handler) and a protocol
    // shutdown verb both end the same wait loop.
    while (!server.waitShutdown(200)) {
        if (g_interrupted.load())
            server.requestShutdown();
    }
    server.stop();

    const ServiceMetrics m = handler.service().metrics();
    std::fprintf(stderr, "laperm_served: shut down cleanly\n%s",
                 m.toTsv().c_str());
    return 0;
}

int
runCluster(const SessionOptions &session, unsigned workers,
           const std::vector<std::string> &workerArgs,
           const char *argv0)
{
    if (session.endpoint.kind == Endpoint::Kind::Tcp &&
        session.endpoint.port == 0) {
        std::fprintf(stderr, "laperm_served: --cluster over tcp needs "
                             "an explicit port (worker ports are "
                             "derived from it)\n");
        return 2;
    }

    SupervisorOptions supOpts;
    supOpts.publicEndpoint = session.endpoint;
    supOpts.workers = workers;
    supOpts.exePath = selfExePath(argv0);
    supOpts.workerArgs = workerArgs;
    Supervisor supervisor(supOpts);

    std::string err;
    if (!supervisor.startAll(err)) {
        std::fprintf(stderr, "laperm_served: %s\n", err.c_str());
        supervisor.stopAll();
        return 1;
    }

    BalancerOptions balOpts;
    balOpts.workers = supervisor.workerEndpoints();
    BalancerHandler balancer(std::move(balOpts));
    Server server(session, balancer);
    if (!server.start(err)) {
        std::fprintf(stderr, "laperm_served: %s\n", err.c_str());
        supervisor.stopAll();
        return 1;
    }
    std::printf(
        "laperm_served cluster (%u workers) listening on %s "
        "(fingerprint %s)\n",
        workers, server.boundEndpoint().toString().c_str(),
        simFingerprint().c_str());
    std::fflush(stdout);

    // The poll loop doubles as the respawn loop: a worker that dies
    // outside shutdown is replaced within one tick. Once shutdown is
    // requested (verb or signal), respawning stops so workers that the
    // balancer's fan-out already terminated stay down.
    while (!server.waitShutdown(200)) {
        if (g_interrupted.load())
            server.requestShutdown();
        supervisor.pollRespawn();
    }
    server.stop();
    supervisor.stopAll();
    std::fprintf(stderr, "laperm_served: cluster shut down cleanly\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    SessionOptions session;
    ServiceOptions service;
    unsigned cluster = 0;

    auto next_arg = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage(argv[0]);
        return argv[++i];
    };
    auto parse_u64 = [&](const char *s, const char *what,
                         std::uint64_t max = UINT64_MAX) {
        std::uint64_t v = 0;
        if (!parseUInt(s, max, v)) {
            std::fprintf(stderr, "bad %s value '%s'\n", what, s);
            std::exit(2);
        }
        return v;
    };
    auto parse_u32 = [&](const char *s, const char *what) {
        return static_cast<std::uint32_t>(parse_u64(s, what, UINT32_MAX));
    };

    // Worker args reproduce the service-shaping flags verbatim so
    // every cluster worker runs the configuration the operator gave
    // the supervisor.
    std::vector<std::string> workerArgs;
    bool explicitCacheDir = false;

    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (!std::strcmp(a, "--listen")) {
            std::string err;
            if (!parseEndpoint(next_arg(i), session.endpoint, err)) {
                std::fprintf(stderr, "laperm_served: %s\n",
                             err.c_str());
                return 2;
            }
        } else if (!std::strcmp(a, "--cluster")) {
            cluster = parse_u32(next_arg(i), "--cluster");
            if (cluster == 0) {
                std::fprintf(stderr, "--cluster must be >= 1\n");
                return 2;
            }
        } else if (!std::strcmp(a, "--jobs")) {
            const char *v = next_arg(i);
            service.jobs = parse_u32(v, "--jobs");
            workerArgs.insert(workerArgs.end(), {"--jobs", v});
        } else if (!std::strcmp(a, "--queue-capacity")) {
            const char *v = next_arg(i);
            service.queueCapacity = parse_u32(v, "--queue-capacity");
            workerArgs.insert(workerArgs.end(),
                              {"--queue-capacity", v});
        } else if (!std::strcmp(a, "--timeout-ms")) {
            const char *v = next_arg(i);
            service.timeoutMs = parse_u64(v, "--timeout-ms");
            workerArgs.insert(workerArgs.end(), {"--timeout-ms", v});
        } else if (!std::strcmp(a, "--cache-dir")) {
            const char *v = next_arg(i);
            service.cacheDir = v;
            workerArgs.insert(workerArgs.end(), {"--cache-dir", v});
            explicitCacheDir = true;
        } else {
            usage(argv[0]);
        }
    }
    if (service.queueCapacity == 0) {
        std::fprintf(stderr, "--queue-capacity must be >= 1\n");
        return 2;
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    if (cluster == 0)
        return runSingle(session, std::move(service));

    // Workers share one disk cache tier — that IS the cluster's
    // cross-worker dedup. Resolve the default here so the directory is
    // pinned even if a worker's environment were to differ.
    if (!explicitCacheDir) {
        workerArgs.insert(workerArgs.end(),
                          {"--cache-dir", cacheRootDir()});
    }
    return runCluster(session, cluster, workerArgs, argv[0]);
}
