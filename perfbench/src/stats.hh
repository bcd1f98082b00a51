/**
 * @file
 * Sample summaries for the benchmark's timings.
 *
 * Percentiles use the nearest-rank definition: the q-th percentile of n
 * sorted samples is the sample at 1-based rank ceil(q/100 * n). A
 * percentile above the median is only reported when at least
 * kMinBeyond samples lie beyond that rank; otherwise the helper
 * refuses (returns nothing) rather than report a "p99" that is really
 * the maximum of a small sample.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/** Samples that must lie beyond a reported tail percentile. */
constexpr std::size_t kMinBeyond = 10;

/** Nearest-rank percentile of sorted, non-empty @p sorted; q in (0, 100]. */
double percentileSorted(const std::vector<double> &sorted, double q);

/**
 * The q-th percentile of @p sorted, or nothing when fewer than
 * kMinBeyond samples lie beyond its rank.
 */
std::optional<double> supportedPercentile(const std::vector<double> &sorted,
                                          double q);

/** Smallest sample count for which percentile @p q is supported. */
std::size_t minSamplesFor(double q);

/** Median plus the highest supported percentile of a timing. */
struct Summary
{
    std::size_t n = 0;
    double p50 = 0.0;
    /** Highest supported percentile from {75, 90, 95, 99, 99.9, 99.99}; 0 = none. */
    double tailQ = 0.0;
    double tail = 0.0;
};

/** Summarize @p samples (sorted in place); n = 0 when empty. */
Summary summarize(std::vector<double> &samples);

/** Arithmetic mean; 0 when empty. */
double mean(const std::vector<double> &samples);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
