/**
 * @file
 * Consistent-hash ring for cluster request routing (DESIGN.md §15.4).
 * Each worker owns `vnodes` points on a 64-bit ring (fnv1a64 over
 * "worker-<i>/vnode-<j>"); a request's 128-bit content key hashes to a
 * point, and the next worker point clockwise is the key's home.
 *
 * Why consistent hashing instead of round-robin: each content key has
 * ONE home worker, so repeats of a key find its result in that
 * worker's in-memory cache tier, and when the worker count changes
 * only ~1/N of the key space moves, so a resized cluster keeps most of
 * each worker's memory tier warm. The balancer prefers the home but
 * spills a new key to the next worker of preference() when the home is
 * busy (bounded loads, DESIGN.md §15.4).
 *
 * Deterministic by construction (no RNG, no wall clock): the same key
 * routes to the same worker index in every process, which the cluster
 * smoke test and bench rely on.
 */

#ifndef LAPERM_SERVE_CLUSTER_HASH_RING_HH
#define LAPERM_SERVE_CLUSTER_HASH_RING_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hh"

namespace laperm {
namespace serve {

class HashRing
{
    /// FNV-1a 64-bit offset basis (same basis contentKey() starts from).
    static constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

    /**
     * splitmix64 finalizer over the FNV hash. FNV-1a's high bits
     * barely avalanche on short, similar strings — the vnode labels
     * differ in one or two digit characters, which left ring arcs so
     * clustered that one of four workers owned ~3/4 of the key space.
     * Ring placement compares full 64-bit values, so the finalizer's
     * uniform high bits are what make shares come out ~1/N.
     */
    static constexpr std::uint64_t mix64(std::uint64_t x)
    {
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ull;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebull;
        x ^= x >> 31;
        return x;
    }

  public:
    explicit HashRing(std::size_t workers, unsigned vnodes = 64)
        : workers_(workers)
    {
        ring_.reserve(workers * vnodes);
        for (std::size_t w = 0; w < workers; ++w) {
            for (unsigned v = 0; v < vnodes; ++v) {
                const std::string label = "worker-" +
                                          std::to_string(w) +
                                          "/vnode-" + std::to_string(v);
                ring_.emplace_back(mix64(fnv1a64(label, kFnvBasis)), w);
            }
        }
        std::sort(ring_.begin(), ring_.end());
    }

    /** Worker index owning @p key (a content key or any string). */
    std::size_t workerFor(const std::string &key) const
    {
        const std::uint64_t h = mix64(fnv1a64(key, kFnvBasis));
        auto it = std::upper_bound(
            ring_.begin(), ring_.end(),
            std::make_pair(h, std::size_t(0)),
            [](const auto &a, const auto &b) { return a.first < b.first; });
        if (it == ring_.end())
            it = ring_.begin(); // wrap around the ring
        return it->second;
    }

    /**
     * Every worker once, in the order a clockwise walk from @p key's
     * ring point first meets it: element 0 is workerFor(key), element
     * 1 the worker the key would move to if its owner left the ring,
     * and so on. The balancer's bounded-load routing walks this list.
     */
    std::vector<std::size_t> preference(const std::string &key) const
    {
        const std::uint64_t h = mix64(fnv1a64(key, kFnvBasis));
        const std::size_t start = static_cast<std::size_t>(
            std::upper_bound(ring_.begin(), ring_.end(),
                             std::make_pair(h, std::size_t(0)),
                             [](const auto &a, const auto &b) {
                                 return a.first < b.first;
                             }) -
            ring_.begin());
        std::vector<std::size_t> order;
        std::vector<bool> seen(workers_, false);
        for (std::size_t i = 0;
             i < ring_.size() && order.size() < workers_; ++i) {
            const std::size_t w = ring_[(start + i) % ring_.size()].second;
            if (!seen[w]) {
                seen[w] = true;
                order.push_back(w);
            }
        }
        return order;
    }

    std::size_t points() const { return ring_.size(); }

  private:
    std::size_t workers_;
    std::vector<std::pair<std::uint64_t, std::size_t>> ring_;
};

} // namespace serve
} // namespace laperm

#endif // LAPERM_SERVE_CLUSTER_HASH_RING_HH
