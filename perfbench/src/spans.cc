#include "spans.hh"

#include <algorithm>
#include <utility>

namespace perfbench {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

std::int64_t
SpanLog::open(const std::string &name, std::int64_t parent,
              std::uint64_t request)
{
    return add(name, nowNs(), 0, parent, request);
}

void
SpanLog::close(std::int64_t id)
{
    const std::int64_t t = nowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].endNs = t;
}

std::int64_t
SpanLog::add(const std::string &name, std::int64_t startNs,
             std::int64_t endNs, std::int64_t parent, std::uint64_t request)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, startNs, endNs, parent, request});
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<Span>
SpanLog::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

std::vector<std::int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent >= 0)
            kids[static_cast<std::size_t>(s.parent)].emplace_back(s.startNs,
                                                                  s.endNs);
    }
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        // Length of the union of the children, clipped to the parent.
        std::int64_t covered = 0;
        std::int64_t curLo = 0;
        std::int64_t curHi = -1;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, s.startNs);
            hi = std::min(hi, s.endNs);
            if (hi <= lo)
                continue;
            if (lo > curHi) {
                if (curHi > curLo)
                    covered += curHi - curLo;
                curLo = lo;
                curHi = hi;
            } else {
                curHi = std::max(curHi, hi);
            }
        }
        if (curHi > curLo)
            covered += curHi - curLo;
        self[i] = (s.endNs - s.startNs) - covered;
    }
    return self;
}

std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

std::map<std::string, LayerTime>
layerTimes(const std::vector<Span> &spans)
{
    const std::vector<std::int64_t> self = selfTimes(spans);
    std::map<std::string, LayerTime> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        LayerTime &t = out[layerOf(spans[i].name)];
        ++t.spans;
        t.totalNs += spans[i].endNs - spans[i].startNs;
        t.selfNs += self[i];
    }
    return out;
}

} // namespace perfbench
