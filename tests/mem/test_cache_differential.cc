/**
 * @file
 * Differential test of the cache's flat layout (structure-of-arrays
 * tags, open-addressing MSHR table, reciprocal set index) against a
 * reference model kept here: the array-of-structs tag store and
 * node-based MSHR map the simulator used before. Both are driven by the
 * same seeded streams of loads, stores, raw allocates and MSHR trims,
 * and must agree on every result, on contains() and on the statistics.
 * Also checks FastMod against `%`.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/rng.hh"
#include "mem/cache.hh"
#include "mem/fast_mod.hh"

using namespace laperm;

namespace {

/** The pre-flattening cache, verbatim in behaviour. */
class RefCache
{
  public:
    explicit RefCache(const CacheParams &params)
        : params_(params),
          numSets_(params.size / (params.assoc * kLineBytes)),
          ways_(static_cast<std::size_t>(numSets_) * params.assoc)
    {
    }

    CacheAccessResult
    lookupLoad(Addr line, Cycle now)
    {
        CacheAccessResult res;
        ++stats_.accesses;
        if (Way *way = findWay(line)) {
            way->lruStamp = ++lruClock_;
            if (way->fillReady <= now) {
                ++stats_.hits;
                res.hit = true;
            } else {
                ++stats_.misses;
                ++stats_.mshrMerges;
                res.mshrMerge = true;
                res.fillReady = way->fillReady;
            }
            return res;
        }
        auto it = mshr_.find(line);
        if (it != mshr_.end()) {
            if (it->second <= now) {
                mshr_.erase(it);
            } else {
                ++stats_.misses;
                ++stats_.mshrMerges;
                res.mshrMerge = true;
                res.fillReady = it->second;
                return res;
            }
        }
        ++stats_.misses;
        return res;
    }

    CacheAccessResult
    lookupStore(Addr line, Cycle now)
    {
        CacheAccessResult res;
        if (params_.writeEvict) {
            if (Way *way = findWay(line)) {
                way->valid = false;
                ++stats_.storeEvicts;
            }
            return res;
        }
        ++stats_.accesses;
        if (Way *way = findWay(line)) {
            way->lruStamp = ++lruClock_;
            way->dirty = true;
            if (way->fillReady <= now) {
                ++stats_.hits;
                res.hit = true;
            } else {
                ++stats_.misses;
                ++stats_.mshrMerges;
                res.mshrMerge = true;
                res.fillReady = way->fillReady;
            }
            return res;
        }
        ++stats_.misses;
        return res;
    }

    bool
    allocate(Addr line, Cycle fill_ready, Cycle now, bool dirty)
    {
        Way *base = setBase(line);
        Way *victim = nullptr;
        for (std::uint32_t w = 0; w < params_.assoc; ++w) {
            if (!base[w].valid) {
                victim = &base[w];
                break;
            }
            if (!victim || base[w].lruStamp < victim->lruStamp)
                victim = &base[w];
        }
        bool victim_dirty = false;
        if (victim->valid) {
            ++stats_.evictions;
            if (victim->dirty) {
                victim_dirty = true;
                ++stats_.writebacks;
            }
            if (victim->fillReady > now)
                mshr_[victim->line] = victim->fillReady;
        }
        *victim = Way{line, true, dirty, fill_ready, ++lruClock_};
        return victim_dirty;
    }

    bool
    contains(Addr line)
    {
        return findWay(line) != nullptr;
    }

    void
    trimExpiredMshr(Cycle safe_now)
    {
        if (mshr_.size() < params_.mshrTrimWatermark)
            return;
        std::erase_if(mshr_,
                      [&](const auto &kv) { return kv.second <= safe_now; });
    }

    void
    reset()
    {
        std::fill(ways_.begin(), ways_.end(), Way{});
        mshr_.clear();
        lruClock_ = 0;
        stats_ = CacheStats{};
    }

    const CacheStats &stats() const { return stats_; }
    std::size_t mshrSize() const { return mshr_.size(); }

  private:
    struct Way
    {
        Addr line = 0;
        bool valid = false;
        bool dirty = false;
        Cycle fillReady = 0;
        std::uint64_t lruStamp = 0;
    };

    Way *
    setBase(Addr line)
    {
        return &ways_[static_cast<std::size_t>((line / kLineBytes) %
                                               numSets_) *
                      params_.assoc];
    }

    Way *
    findWay(Addr line)
    {
        Way *base = setBase(line);
        for (std::uint32_t w = 0; w < params_.assoc; ++w) {
            if (base[w].valid && base[w].line == line)
                return &base[w];
        }
        return nullptr;
    }

    CacheParams params_;
    std::uint32_t numSets_;
    std::vector<Way> ways_;
    std::uint64_t lruClock_ = 0;
    std::unordered_map<Addr, Cycle> mshr_;
    CacheStats stats_;
};

void
expectSameStats(const CacheStats &a, const CacheStats &b, int step)
{
    EXPECT_EQ(a.accesses, b.accesses) << "step " << step;
    EXPECT_EQ(a.hits, b.hits) << "step " << step;
    EXPECT_EQ(a.misses, b.misses) << "step " << step;
    EXPECT_EQ(a.mshrMerges, b.mshrMerges) << "step " << step;
    EXPECT_EQ(a.evictions, b.evictions) << "step " << step;
    EXPECT_EQ(a.writebacks, b.writebacks) << "step " << step;
    EXPECT_EQ(a.storeEvicts, b.storeEvicts) << "step " << step;
}

/** Run one seeded stream through both caches; stop at first mismatch. */
void
runStream(const CacheParams &p, std::uint64_t seed, int steps)
{
    Cache dut(p);
    RefCache ref(p);
    Rng rng(seed);
    const std::uint64_t sets = dut.numSets();
    // Crowd a few hot sets with 3x their ways so evictions of in-flight
    // fills feed the MSHR table; sprinkle cold lines over all sets; put
    // tenants' lines above 2^38 as multi-tenant address spaces do.
    const Addr tenant_base[] = {0, Addr{1} << 38, Addr{5} << 40,
                                ~Addr{0} - (Addr{1} << 45) + 1};
    auto pick_line = [&]() -> Addr {
        const Addr base = tenant_base[rng.nextBounded(4)];
        std::uint64_t n;
        if (rng.nextBounded(4) != 0)
            n = rng.nextBounded(4) + sets * rng.nextBounded(3 * p.assoc);
        else
            n = rng.nextBounded(64 * sets);
        return base + n * kLineBytes;
    };

    Cycle clock = 0; // monotone: the device clock that drives trims
    std::size_t peak_mshr = 0;
    for (int step = 0; step < steps; ++step) {
        clock += rng.nextBounded(4);
        // Access timestamps run ahead of the clock out of order, as
        // batched LSU issue and bank queueing make them at the L2.
        const Cycle now = clock + rng.nextBounded(200);
        const Cycle fill = now + 20 + rng.nextBounded(
                                          rng.nextBounded(8) == 0 ? 4000
                                                                  : 400);
        const Addr line = pick_line();
        const std::uint64_t op = rng.nextBounded(100);
        if (op < 55) {
            const CacheAccessResult a = dut.lookupLoad(line, now);
            const CacheAccessResult b = ref.lookupLoad(line, now);
            ASSERT_EQ(a.hit, b.hit) << "load step " << step;
            ASSERT_EQ(a.mshrMerge, b.mshrMerge) << "load step " << step;
            ASSERT_EQ(a.fillReady, b.fillReady) << "load step " << step;
            ASSERT_EQ(a.victimDirty, b.victimDirty) << "load step " << step;
            if (!a.hit && !a.mshrMerge) {
                ASSERT_EQ(dut.allocate(line, fill, now, false),
                          ref.allocate(line, fill, now, false))
                    << "load fill step " << step;
            }
        } else if (op < 80) {
            const CacheAccessResult a = dut.lookupStore(line, now);
            const CacheAccessResult b = ref.lookupStore(line, now);
            ASSERT_EQ(a.hit, b.hit) << "store step " << step;
            ASSERT_EQ(a.mshrMerge, b.mshrMerge) << "store step " << step;
            ASSERT_EQ(a.fillReady, b.fillReady) << "store step " << step;
            if (!p.writeEvict && !a.hit && !a.mshrMerge) {
                ASSERT_EQ(dut.allocate(line, now, now, true),
                          ref.allocate(line, now, now, true))
                    << "store fill step " << step;
            }
        } else if (op < 88) {
            // A raw allocate, possibly of a line already present.
            const bool dirty = rng.nextBounded(2) != 0;
            ASSERT_EQ(dut.allocate(line, fill, now, dirty),
                      ref.allocate(line, fill, now, dirty))
                << "allocate step " << step;
        } else if (op < 96) {
            ASSERT_EQ(dut.contains(line), ref.contains(line))
                << "contains step " << step;
        } else {
            dut.trimExpiredMshr(clock);
            ref.trimExpiredMshr(clock);
        }
        peak_mshr = std::max(peak_mshr, ref.mshrSize());
        if (step % 1024 == 0) {
            expectSameStats(dut.stats(), ref.stats(), step);
            if (::testing::Test::HasFailure())
                return;
        }
    }
    expectSameStats(dut.stats(), ref.stats(), steps);
    // The stream must actually have exercised the MSHR table's growth
    // and the trim past its watermark.
    EXPECT_GT(peak_mshr, 4u * p.mshrTrimWatermark);
    EXPECT_GT(dut.stats().mshrMerges, 0u);
    EXPECT_GT(dut.stats().evictions, 0u);

    // reset() returns both to the same empty state.
    dut.reset();
    ref.reset();
    expectSameStats(dut.stats(), ref.stats(), steps);
    for (int i = 0; i < 256; ++i) {
        const Addr line = pick_line();
        ASSERT_EQ(dut.contains(line), ref.contains(line));
        ASSERT_EQ(dut.lookupLoad(line, clock).mshrMerge,
                  ref.lookupLoad(line, clock).mshrMerge);
    }
}

CacheParams
l1Params()
{
    CacheParams p;
    p.name = "l1";
    p.size = 32 * 1024;
    p.assoc = 4;
    p.writeEvict = true;
    return p;
}

CacheParams
l2Params()
{
    CacheParams p;
    p.name = "l2";
    p.size = 1536 * 1024;
    p.assoc = 16;
    p.writeEvict = false;
    return p;
}

} // namespace

TEST(CacheDifferential, L1GeometryMatchesReference)
{
    for (std::uint64_t seed : {1u, 2u, 3u})
        runStream(l1Params(), seed, 60000);
}

TEST(CacheDifferential, L2GeometryMatchesReference)
{
    CacheParams p = l2Params();
    ASSERT_EQ(Cache(p).numSets(), 768u);
    for (std::uint64_t seed : {1u, 2u, 3u})
        runStream(p, seed, 60000);
}

TEST(CacheDifferential, UnthrottledTrimMatchesReference)
{
    // Watermark 0: every trim walks the table, including tiny ones.
    CacheParams p = l2Params();
    p.mshrTrimWatermark = 0;
    runStream(p, 7, 30000);
    p = l1Params();
    p.mshrTrimWatermark = 0;
    runStream(p, 8, 30000);
}

TEST(CacheDifferential, TrimKeepsFillsCompletingAfterTheClock)
{
    // One set, one way: each allocate evicts the previous line.
    CacheParams p;
    p.size = kLineBytes;
    p.assoc = 1;
    p.mshrTrimWatermark = 0;
    Cache c(p);
    c.allocate(0, 100, 0, false);
    c.allocate(kLineBytes, 100, 0, false); // evicts line 0 mid-fill
    c.trimExpiredMshr(99);
    const CacheAccessResult r = c.lookupLoad(0, 99);
    EXPECT_TRUE(r.mshrMerge);
    EXPECT_EQ(r.fillReady, 100u);
    c.trimExpiredMshr(100);
    EXPECT_FALSE(c.lookupLoad(0, 100).mshrMerge);
}

TEST(FastMod, EqualsModuloForEdgeDividends)
{
    const std::uint64_t kMax = ~std::uint64_t{0};
    for (std::uint64_t d : {std::uint64_t{1}, std::uint64_t{3},
                            std::uint64_t{6}, std::uint64_t{64},
                            std::uint64_t{768}, std::uint64_t{0xFFFFFFFF}}) {
        const FastMod fm(d);
        std::vector<std::uint64_t> dividends = {
            0, d - 1, d, d + 1, 2 * d - 1, std::uint64_t{1} << 32, kMax,
            kMax - 1, kMax - d};
        for (std::uint64_t k = 1; k <= 64; ++k)
            dividends.push_back(k << 38);
        Rng rng(d);
        for (int i = 0; i < 4096; ++i)
            dividends.push_back(rng.next() >> rng.nextBounded(64));
        for (std::uint64_t n : dividends)
            ASSERT_EQ(fm.mod(n), n % d) << n << " % " << d;
    }
}
