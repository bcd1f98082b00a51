/**
 * @file
 * Cluster front end (DESIGN.md §15.4): a LineHandler that routes
 * protocol frames to worker daemons instead of answering locally.
 *
 * Routing contract (consistent hashing with bounded loads): `run`
 * requests canonicalize to a 128-bit content key (serve/service
 * sim_request). A key already in flight goes to the worker running it,
 * so single-flight holds cluster-wide. Any other key goes to the first
 * worker of its ring preference walk, starting at its home
 * (HashRing::workerFor), whose outstanding runs are below
 * ceil((total outstanding + 1) / N). Each worker link serializes its
 * requests, so a busy home would only queue the run while another
 * worker idles; payloads are content-addressed and every worker shares
 * the disk result tier, so spilling changes where a run executes, not
 * what it returns. An idle cluster routes every key to its home, and
 * no run spills onto a worker whose last call failed.
 * `stats` fans out and aggregates; `shutdown` fans out then stops the
 * local session; `ping` proxies to worker 0 (all workers share one
 * binary, hence one fingerprint).
 *
 * Forwarding is byte-transparent: the original request line travels to
 * the worker verbatim and the worker's response line comes back
 * verbatim, so a served result is byte-identical whether the client
 * spoke to a worker directly or through the balancer.
 *
 * A worker that cannot be reached (crashed and not yet respawned by
 * the supervisor) degrades to a structured `overloaded` response after
 * the per-call reconnect budget — shedding composes across layers:
 * workers shed on admission, the balancer sheds on worker loss.
 */

#ifndef LAPERM_SERVE_CLUSTER_BALANCER_HH
#define LAPERM_SERVE_CLUSTER_BALANCER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/cluster/hash_ring.hh"
#include "serve/session/handler.hh"
#include "serve/transport/transport.hh"

namespace laperm {
namespace serve {

struct BalancerOptions
{
    std::vector<Endpoint> workers;
    /**
     * Per-call (re)connect attempts x backoff. The default rides out a
     * worker respawn: the supervisor's poll interval plus exec time is
     * well under 40 x 50 ms.
     */
    unsigned connectRetries = 40;
    std::uint64_t backoffMs = 50;
};

class BalancerHandler : public LineHandler
{
  public:
    explicit BalancerHandler(BalancerOptions opts);
    ~BalancerHandler() override;

    std::string handleLine(const std::string &line) override;

    std::size_t workerCount() const { return workers_.size(); }

  private:
    struct Worker
    {
        Endpoint endpoint;
        std::mutex mu; ///< serializes request/response on the link
        std::unique_ptr<Connection> conn;
        /** The last call got an answer; runs spill only onto these. */
        std::atomic<bool> reachable{true};
    };

    /** A run key being forwarded, and how many requests wait on it. */
    struct InFlight
    {
        std::size_t worker = 0;
        std::size_t refs = 0;
    };

    /**
     * Send @p line to worker @p idx and read one response line,
     * (re)connecting with the options' retry budget. False when the
     * worker stays unreachable. The time spent waiting for the link
     * is added to @p linkWaitUs when given.
     */
    bool callWorker(std::size_t idx, const std::string &line,
                    std::string &response,
                    std::atomic<std::uint64_t> *linkWaitUs = nullptr);

    /** Pick the worker for a run of @p key and count it outstanding. */
    std::size_t route(const std::string &key);
    /** Undo route()'s bookkeeping once the run's call returns. */
    void release(const std::string &key, std::size_t idx);

    std::string handleRun(const std::string &line,
                          const std::string &key);
    std::string handleStats();
    std::string handleShutdown();

    BalancerOptions opts_;
    std::vector<std::unique_ptr<Worker>> workers_;
    HashRing ring_;

    std::mutex routeMu_; ///< guards the three members below
    std::vector<std::size_t> outstanding_; ///< forwarded runs per worker
    std::size_t totalOutstanding_ = 0;
    std::unordered_map<std::string, InFlight> inFlight_;

    std::atomic<std::uint64_t> routedSpill_{0}; ///< runs sent off-home
    std::atomic<std::uint64_t> linkWaitUs_{0};  ///< run waits for links
};

} // namespace serve
} // namespace laperm

#endif // LAPERM_SERVE_CLUSTER_BALANCER_HH
