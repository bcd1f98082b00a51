#include "serve/cluster/balancer.hh"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/log.hh"
#include "serve/service/protocol.hh"
#include "serve/service/sim_request.hh"

namespace laperm {
namespace serve {

namespace {

/**
 * ServiceMetrics wire fields, in wire order, so the aggregated stats
 * response preserves the single-worker field sequence. queue_depth_peak
 * aggregates by max (a cluster-wide peak-of-peaks); everything else by
 * sum.
 */
constexpr const char *kStatFields[] = {
    "requests",      "executed", "cache_hits", "cache_misses",
    "cache_mem_hits", "cache_shared_hits", "deduped", "shed",
    "timeouts",      "errors",   "queue_depth", "queue_depth_peak",
    "queue_us",      "exec_us",  "total_us",
};
constexpr std::size_t kNumStatFields =
    sizeof(kStatFields) / sizeof(kStatFields[0]);

} // namespace

BalancerHandler::BalancerHandler(BalancerOptions opts)
    : opts_(std::move(opts)), ring_(opts_.workers.size()),
      outstanding_(opts_.workers.size(), 0)
{
    for (const Endpoint &ep : opts_.workers) {
        auto w = std::make_unique<Worker>();
        w->endpoint = ep;
        workers_.push_back(std::move(w));
    }
}

BalancerHandler::~BalancerHandler() = default;

bool
BalancerHandler::callWorker(std::size_t idx, const std::string &line,
                            std::string &response,
                            std::atomic<std::uint64_t> *linkWaitUs)
{
    Worker &w = *workers_[idx];
    const auto waitStart = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(w.mu);
    if (linkWaitUs) {
        linkWaitUs->fetch_add(
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - waitStart)
                    .count()),
            std::memory_order_relaxed);
    }
    for (unsigned attempt = 0; attempt <= opts_.connectRetries;
         ++attempt) {
        if (attempt > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(opts_.backoffMs));
        }
        if (!w.conn) {
            std::string err;
            w.conn = connectTo(w.endpoint, err);
            if (!w.conn)
                continue; // worker down; maybe being respawned
        }
        if (w.conn->writeAll(line + "\n") &&
            w.conn->readLine(response)) {
            w.reachable = true;
            return true;
        }
        // Dead link (worker killed mid-request): drop it and retry on
        // a fresh connection — the request was idempotent by design
        // (content-keyed, cache-backed).
        w.conn.reset();
    }
    w.reachable = false;
    return false;
}

std::size_t
BalancerHandler::route(const std::string &key)
{
    std::lock_guard<std::mutex> lock(routeMu_);
    auto [it, fresh] = inFlight_.try_emplace(key);
    if (fresh) {
        // ceil((total + 1) / N) always admits some worker: N workers
        // all at or above it would hold more runs than are outstanding.
        // A run never spills onto a worker whose last call failed; with
        // no other taker it queues at home.
        const std::size_t n = workers_.size();
        const std::size_t bound = (totalOutstanding_ + n) / n;
        const std::vector<std::size_t> order = ring_.preference(key);
        std::size_t idx = order.front();
        for (std::size_t w : order) {
            if (outstanding_[w] < bound &&
                (w == order.front() || workers_[w]->reachable)) {
                idx = w;
                break;
            }
        }
        if (idx != order.front())
            routedSpill_.fetch_add(1, std::memory_order_relaxed);
        it->second.worker = idx;
    }
    ++it->second.refs;
    ++outstanding_[it->second.worker];
    ++totalOutstanding_;
    return it->second.worker;
}

void
BalancerHandler::release(const std::string &key, std::size_t idx)
{
    std::lock_guard<std::mutex> lock(routeMu_);
    --outstanding_[idx];
    --totalOutstanding_;
    const auto it = inFlight_.find(key);
    if (--it->second.refs == 0)
        inFlight_.erase(it);
}

std::string
BalancerHandler::handleRun(const std::string &line,
                           const std::string &key)
{
    const std::size_t idx = route(key);
    std::string response;
    const bool ok = callWorker(idx, line, response, &linkWaitUs_);
    release(key, idx);
    if (ok)
        return response;
    // Worker unreachable past the respawn budget: shed with a longer
    // hint than worker admission shedding uses, since recovery here
    // means a process restart rather than a queue draining.
    return logFormat(
        "{\"status\":\"overloaded\",\"key\":\"%s\",\"retry_ms\":200}",
        key.c_str());
}

std::string
BalancerHandler::handleStats()
{
    std::uint64_t sums[kNumStatFields] = {};
    std::string fingerprint;
    std::size_t reachable = 0;

    for (std::size_t i = 0; i < workers_.size(); ++i) {
        std::string response;
        if (!callWorker(i, std::string("{\"op\":\"stats\"}"), response))
            continue;
        JsonObject obj;
        std::string err;
        if (!parseJsonObject(response, obj, err))
            continue;
        ++reachable;
        if (fingerprint.empty())
            getString(obj, "fingerprint", fingerprint);
        for (std::size_t f = 0; f < kNumStatFields; ++f) {
            std::uint64_t v = 0;
            if (!getU64(obj, kStatFields[f], v))
                continue;
            if (std::string(kStatFields[f]) == "queue_depth_peak")
                sums[f] = std::max(sums[f], v);
            else
                sums[f] += v;
        }
    }
    if (reachable == 0)
        return errorResponse(kStatusError, "no reachable workers");

    std::string out =
        "{\"status\":\"ok\",\"op\":\"stats\",\"fingerprint\":\"" +
        fingerprint + "\"";
    for (std::size_t f = 0; f < kNumStatFields; ++f) {
        out += logFormat(",\"%s\":%llu", kStatFields[f],
                         static_cast<unsigned long long>(sums[f]));
    }
    out += logFormat(
        ",\"workers\":%llu,\"routed_spill\":%llu,"
        "\"link_wait_us\":%llu}",
        static_cast<unsigned long long>(reachable),
        static_cast<unsigned long long>(routedSpill_.load()),
        static_cast<unsigned long long>(linkWaitUs_.load()));
    return out;
}

std::string
BalancerHandler::handleShutdown()
{
    // Fan out first so workers exit before the supervisor's poll loop
    // (which stops respawning once the local shutdown lands) winds
    // down; unreachable workers are already dead, which is fine.
    for (std::size_t i = 0; i < workers_.size(); ++i) {
        std::string response;
        callWorker(i, std::string("{\"op\":\"shutdown\"}"), response);
    }
    requestShutdown();
    return "{\"status\":\"ok\",\"op\":\"shutdown\"}";
}

std::string
BalancerHandler::handleLine(const std::string &line)
{
    JsonObject obj;
    std::string err;
    if (!parseJsonObject(line, obj, err))
        return errorResponse(kStatusError, "bad request: " + err);

    std::string op;
    if (!getString(obj, "op", op))
        return errorResponse(kStatusError, "missing 'op'");

    if (op == kVerbPing) {
        // All workers run one binary, hence one fingerprint; worker 0
        // answers for the cluster.
        std::string response;
        if (callWorker(0, line, response))
            return response;
        return errorResponse(kStatusError, "worker 0 unreachable");
    }
    if (op == kVerbStats)
        return handleStats();
    if (op == kVerbShutdown)
        return handleShutdown();
    if (op != kVerbRun)
        return errorResponse(kStatusError, "unknown op '" + op + "'");

    // Parse only far enough to canonicalize: the worker re-parses and
    // validates, and the original line is forwarded verbatim so the
    // response bytes match a direct submission.
    SimRequest req;
    if (!SimRequest::fromJson(obj, req, err))
        return errorResponse(kStatusError, err);
    return handleRun(line, req.key());
}

} // namespace serve
} // namespace laperm
