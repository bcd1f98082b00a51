/**
 * @file
 * Set-associative cache tag array with LRU replacement and MSHR-style
 * merging of outstanding misses. Timing is "ready-cycle" based: the
 * owner computes completion cycles analytically, the cache tracks tag
 * state and pending fills.
 */

#ifndef LAPERM_MEM_CACHE_HH
#define LAPERM_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "mem/fast_mod.hh"
#include "sim/stats.hh"

namespace laperm {

/** Cache geometry and behaviour parameters. */
struct CacheParams
{
    std::string name = "cache";
    std::uint32_t size = 32 * 1024;
    std::uint32_t assoc = 4;
    /**
     * Kepler L1 behaviour: stores do not allocate and evict a hitting
     * line (write-evict / write-through). When false the cache is
     * write-back write-allocate (L2 behaviour).
     */
    bool writeEvict = false;
    /**
     * MSHR entry count below which trimExpiredMshr() is a no-op; keeps
     * the amortized sweep from touching tiny, cheap maps.
     */
    std::uint32_t mshrTrimWatermark = 16;
};

/** Outcome of a tag lookup. */
struct CacheAccessResult
{
    bool hit = false;        ///< line present and fill complete
    bool mshrMerge = false;  ///< missed, merged into an outstanding fill
    Cycle fillReady = 0;     ///< when the line's data is available
    bool victimDirty = false; ///< an eviction produced a writeback
};

/**
 * Tag array + MSHR. The cache does not know about latencies; callers
 * pass the fill-completion cycle for misses and receive the merged
 * ready cycle for MSHR hits.
 */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Look up a load to @p line at @p now.
     *
     * On a miss, the caller must subsequently call allocate() with the
     * fill-ready cycle obtained from the next level. On an MSHR merge
     * the returned fillReady is the pending fill's completion.
     */
    CacheAccessResult lookupLoad(Addr line, Cycle now);

    /**
     * Handle a store to @p line at @p now.
     *
     * writeEvict caches invalidate a hitting line and never allocate.
     * write-back caches mark the line dirty, allocating on miss (the
     * caller provides fill timing via allocate()).
     */
    CacheAccessResult lookupStore(Addr line, Cycle now);

    /**
     * Install @p line with fill completing at @p fill_ready; evicts the
     * LRU way. @p dirty marks the installed line dirty (store allocate).
     * @return true if the victim was dirty (writeback needed).
     */
    bool allocate(Addr line, Cycle fill_ready, Cycle now, bool dirty);

    /** Whether @p line is currently present (test helper). */
    bool contains(Addr line) const;

    /**
     * Eagerly drop outstanding-fill records that no future access can
     * merge with. @p safe_now must lower-bound every timestamp later
     * lookups will carry (the device clock qualifies; the current
     * access time does NOT — L2 timestamps arrive out of order), so
     * trimming is invisible to the timing model.
     */
    void trimExpiredMshr(Cycle safe_now);

    /** Reset tags, MSHRs and statistics. */
    void reset();

    const CacheStats &stats() const { return stats_; }
    const CacheParams &params() const { return params_; }
    std::uint32_t numSets() const { return numSets_; }

  private:
    /** Tag of an invalid way and of a free MSHR slot. Lines are
     *  kLineBytes-aligned, so no line ever equals it. */
    static constexpr Addr kInvalidLine = ~Addr{0};
    static constexpr std::size_t kNoWay = ~std::size_t{0};

    /**
     * Open-addressing table of outstanding fills evicted from the tag
     * array before completing: line -> completion cycle. Linear
     * probing over a power-of-two slot array with backward-shift
     * erase, so inserts and erases allocate nothing once the table
     * has grown to its working size.
     */
    class MshrTable
    {
      public:
        struct Slot
        {
            Addr line = kInvalidLine; ///< kInvalidLine marks a free slot
            Cycle fillReady = 0;
        };

        /** @p line's pending fill, or nullptr. */
        Slot *find(Addr line);
        void assign(Addr line, Cycle fill_ready);
        /** Remove @p slot, as returned by find(). */
        void erase(Slot *slot);
        /** Drop every entry completing at or before @p cycle. */
        void eraseCompletedBy(Cycle cycle);
        std::size_t size() const { return size_; }
        void clear();

      private:
        std::size_t home(Addr line) const;
        void eraseSlot(std::size_t slot);
        void grow();

        std::vector<Slot> slots_;
        std::size_t mask_ = 0;    ///< slot count - 1
        unsigned shift_ = 64;     ///< 64 - log2(slot count)
        std::size_t size_ = 0;
    };

    /** Index of @p line's set's first way in the tag arrays. */
    std::size_t setBase(Addr line) const
    {
        return static_cast<std::size_t>(setMod_.mod(line / kLineBytes)) *
               params_.assoc;
    }
    /** Tag-array index of @p line, or kNoWay. */
    std::size_t findWay(Addr line) const;

    CacheParams params_;
    std::uint32_t numSets_;
    FastMod setMod_;
    // The tag store, set-major, as parallel arrays: a probe reads only
    // the set's assoc contiguous tags.
    std::vector<Addr> tags_; ///< kInvalidLine marks an invalid way
    std::vector<Cycle> fillReady_; ///< data not usable before this cycle
    std::vector<std::uint64_t> lruStamp_;
    std::vector<std::uint8_t> dirty_;
    std::uint64_t lruClock_ = 0;
    /**
     * Trimmed eagerly by the owner via trimExpiredMshr() so long runs
     * don't accumulate dead entries that every merge-miss lookup then
     * probes through.
     */
    MshrTable mshr_;
    CacheStats stats_;
};

} // namespace laperm

#endif // LAPERM_MEM_CACHE_HH
