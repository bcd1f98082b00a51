#include "mem/cache.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"

namespace laperm {

Cache::Cache(const CacheParams &params)
    : params_(params),
      numSets_(params.size / (params.assoc * kLineBytes))
{
    laperm_assert(numSets_ > 0, "cache %s too small", params_.name.c_str());
    laperm_assert(params_.size % (params_.assoc * kLineBytes) == 0,
                  "cache %s: size not divisible by assoc*line",
                  params_.name.c_str());
    setMod_ = FastMod(numSets_);
    const std::size_t ways = static_cast<std::size_t>(numSets_) *
                             params_.assoc;
    tags_.assign(ways, kInvalidLine);
    fillReady_.assign(ways, 0);
    lruStamp_.assign(ways, 0);
    dirty_.assign(ways, 0);
}

std::size_t
Cache::findWay(Addr line) const
{
    const std::size_t base = setBase(line);
    const Addr *tags = tags_.data() + base;
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        if (tags[w] == line)
            return base + w;
    }
    return kNoWay;
}

CacheAccessResult
Cache::lookupLoad(Addr line, Cycle now)
{
    CacheAccessResult res;
    ++stats_.accesses;
    if (const std::size_t w = findWay(line); w != kNoWay) {
        lruStamp_[w] = ++lruClock_;
        if (fillReady_[w] <= now) {
            ++stats_.hits;
            res.hit = true;
        } else {
            // The line is being filled by an earlier miss: merge.
            ++stats_.misses;
            ++stats_.mshrMerges;
            res.mshrMerge = true;
            res.fillReady = fillReady_[w];
        }
        return res;
    }
    // Not in the tag array: check for a fill that outlived its line
    // (victim of an intervening allocation).
    if (MshrTable::Slot *pending = mshr_.find(line)) {
        if (pending->fillReady <= now) {
            mshr_.erase(pending);
        } else {
            ++stats_.misses;
            ++stats_.mshrMerges;
            res.mshrMerge = true;
            res.fillReady = pending->fillReady;
            return res;
        }
    }
    ++stats_.misses;
    return res;
}

CacheAccessResult
Cache::lookupStore(Addr line, Cycle now)
{
    CacheAccessResult res;
    if (params_.writeEvict) {
        // Kepler-style L1: write-through, no allocate; a hitting line is
        // evicted so later loads observe the new data from L2. Stores do
        // not participate in the L1 hit-rate statistics.
        if (const std::size_t w = findWay(line); w != kNoWay) {
            tags_[w] = kInvalidLine;
            ++stats_.storeEvicts;
        }
        return res;
    }
    // Write-back, write-allocate (L2).
    ++stats_.accesses;
    if (const std::size_t w = findWay(line); w != kNoWay) {
        lruStamp_[w] = ++lruClock_;
        dirty_[w] = 1;
        if (fillReady_[w] <= now) {
            ++stats_.hits;
            res.hit = true;
        } else {
            ++stats_.misses;
            ++stats_.mshrMerges;
            res.mshrMerge = true;
            res.fillReady = fillReady_[w];
        }
        return res;
    }
    ++stats_.misses;
    return res;
}

bool
Cache::allocate(Addr line, Cycle fill_ready, Cycle now, bool dirty)
{
    laperm_assert(line != kInvalidLine, "cache %s: line %#llx reserved",
                  params_.name.c_str(),
                  static_cast<unsigned long long>(line));
    // Victim: the first invalid way, else the least recently used.
    const std::size_t base = setBase(line);
    std::size_t victim = base;
    for (std::size_t w = base; w < base + params_.assoc; ++w) {
        if (tags_[w] == kInvalidLine) {
            victim = w;
            break;
        }
        if (lruStamp_[w] < lruStamp_[victim])
            victim = w;
    }
    bool victim_dirty = false;
    if (tags_[victim] != kInvalidLine) {
        ++stats_.evictions;
        if (dirty_[victim]) {
            victim_dirty = true;
            ++stats_.writebacks;
        }
        // Preserve an in-flight fill for MSHR merging after eviction.
        if (fillReady_[victim] > now)
            mshr_.assign(tags_[victim], fillReady_[victim]);
    }
    tags_[victim] = line;
    dirty_[victim] = dirty ? 1 : 0;
    fillReady_[victim] = fill_ready;
    lruStamp_[victim] = ++lruClock_;
    return victim_dirty;
}

void
Cache::trimExpiredMshr(Cycle safe_now)
{
    // An entry with fillReady <= safe_now can never merge again: every
    // later lookup carries now >= safe_now and would erase-and-miss.
    // Access-time `now` is NOT a valid bound here — L2 sees timestamps
    // out of order, so an entry dead at one access can still satisfy a
    // merge for a logically earlier one.
    if (mshr_.size() < params_.mshrTrimWatermark)
        return;
    mshr_.eraseCompletedBy(safe_now);
}

bool
Cache::contains(Addr line) const
{
    return line != kInvalidLine && findWay(line) != kNoWay;
}

void
Cache::reset()
{
    std::fill(tags_.begin(), tags_.end(), kInvalidLine);
    std::fill(fillReady_.begin(), fillReady_.end(), 0);
    std::fill(lruStamp_.begin(), lruStamp_.end(), 0);
    std::fill(dirty_.begin(), dirty_.end(), 0);
    mshr_.clear();
    lruClock_ = 0;
    stats_ = CacheStats{};
}

// ------------------------------------------------------------ MshrTable

std::size_t
Cache::MshrTable::home(Addr line) const
{
    // Fibonacci hashing of the line number: the product's top bits.
    return static_cast<std::size_t>(
        ((line / kLineBytes) * 0x9E3779B97F4A7C15ull) >> shift_);
}

Cache::MshrTable::Slot *
Cache::MshrTable::find(Addr line)
{
    if (size_ == 0)
        return nullptr;
    for (std::size_t i = home(line);; i = (i + 1) & mask_) {
        if (slots_[i].line == line)
            return &slots_[i];
        if (slots_[i].line == kInvalidLine)
            return nullptr;
    }
}

void
Cache::MshrTable::assign(Addr line, Cycle fill_ready)
{
    // Keep the load factor at most 1/2 so probe runs stay short.
    if (2 * (size_ + 1) > slots_.size())
        grow();
    std::size_t i = home(line);
    while (slots_[i].line != kInvalidLine && slots_[i].line != line)
        i = (i + 1) & mask_;
    if (slots_[i].line == kInvalidLine) {
        slots_[i].line = line;
        ++size_;
    }
    slots_[i].fillReady = fill_ready;
}

void
Cache::MshrTable::erase(Slot *slot)
{
    eraseSlot(static_cast<std::size_t>(slot - slots_.data()));
}

void
Cache::MshrTable::eraseSlot(std::size_t slot)
{
    // Backward-shift deletion: pull later members of the probe run
    // into the hole unless that would move one before its home slot,
    // so find() never needs tombstones.
    std::size_t hole = slot;
    for (std::size_t i = (slot + 1) & mask_; slots_[i].line != kInvalidLine;
         i = (i + 1) & mask_) {
        const std::size_t h = home(slots_[i].line);
        // Entry i may fill the hole iff its home is not cyclically in
        // (hole, i].
        if (((i - h) & mask_) >= ((i - hole) & mask_)) {
            slots_[hole] = slots_[i];
            hole = i;
        }
    }
    slots_[hole].line = kInvalidLine;
    --size_;
}

void
Cache::MshrTable::eraseCompletedBy(Cycle cycle)
{
    // Order-independent erase filter: the surviving entry set is the
    // same whatever order slots are visited, and nothing downstream
    // observes the table's layout. A backward shift only moves entries
    // into the slot being examined, so it is re-examined rather than
    // skipped.
    for (std::size_t i = 0; i < slots_.size();) {
        if (slots_[i].line != kInvalidLine && slots_[i].fillReady <= cycle)
            eraseSlot(i);
        else
            ++i;
    }
}

void
Cache::MshrTable::grow()
{
    std::vector<Slot> old = std::move(slots_);
    const std::size_t slots = old.empty() ? 16 : 2 * old.size();
    slots_.assign(slots, Slot{});
    mask_ = slots - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
    size_ = 0;
    for (const Slot &s : old) {
        if (s.line != kInvalidLine)
            assign(s.line, s.fillReady);
    }
}

void
Cache::MshrTable::clear()
{
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
}

} // namespace laperm
