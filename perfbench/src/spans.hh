/**
 * @file
 * In-memory span log for the traced benchmark run.
 *
 * A span is recorded by the benchmark's own code around one call into
 * a layer: name ("<layer>.<what>"), start, end, parent span and the id
 * of the request it serves. Spans stay in memory until the run ends.
 * A span's self time is its duration minus the part of its interval
 * that its child spans cover; children that overlap one another (two
 * worker threads under one phase span) are counted once.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds since an arbitrary steady epoch. */
std::int64_t nowNs();

struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int64_t parent = -1; ///< index in the log; -1 for a root
    std::uint64_t request = 0;
};

/** Thread-safe append-only span log. */
class SpanLog
{
  public:
    /** Open a span now; returns its id (index). */
    std::int64_t open(const std::string &name, std::int64_t parent,
                      std::uint64_t request);
    /** Close span @p id now. */
    void close(std::int64_t id);
    /** Record a span that has already ended. */
    std::int64_t add(const std::string &name, std::int64_t startNs,
                     std::int64_t endNs, std::int64_t parent,
                     std::uint64_t request);

    std::vector<Span> snapshot() const;

  private:
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** RAII span; a null log makes it a no-op. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const std::string &name, std::int64_t parent,
               std::uint64_t request = 0)
        : log_(log), id_(log ? log->open(name, parent, request) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (log_)
            log_->close(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::int64_t id() const { return id_; }

  private:
    SpanLog *log_;
    std::int64_t id_;
};

/** Self time (ns) of every span, index-aligned with @p spans. */
std::vector<std::int64_t> selfTimes(const std::vector<Span> &spans);

/** Layer of a span name: the text before the first '.'. */
std::string layerOf(const std::string &name);

struct LayerTime
{
    std::uint64_t spans = 0;
    std::int64_t totalNs = 0;
    std::int64_t selfNs = 0;
};

/** Per-layer span count, summed duration and summed self time. */
std::map<std::string, LayerTime> layerTimes(const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
