#include "stats.hh"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/** 1-based nearest rank of percentile @p q among @p n samples. */
std::size_t
rankOf(std::size_t n, double q)
{
    // The epsilon keeps decimal percentiles (95 of 200 = rank 190)
    // from rounding up to the next rank through binary error.
    const double r =
        std::ceil(q * static_cast<double>(n) / 100.0 - 1e-9);
    return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

} // namespace

double
percentileSorted(const std::vector<double> &sorted, double q)
{
    return sorted[rankOf(sorted.size(), q) - 1];
}

std::optional<double>
supportedPercentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty() || sorted.size() - rankOf(sorted.size(), q) <
                              kMinBeyond)
        return std::nullopt;
    return percentileSorted(sorted, q);
}

std::size_t
minSamplesFor(double q)
{
    std::size_t n = kMinBeyond + 1;
    while (n - rankOf(n, q) < kMinBeyond)
        ++n;
    return n;
}

Summary
summarize(std::vector<double> &samples)
{
    Summary s;
    s.n = samples.size();
    if (samples.empty())
        return s;
    std::sort(samples.begin(), samples.end());
    s.p50 = percentileSorted(samples, 50.0);
    for (double q : {99.99, 99.9, 99.0, 95.0, 90.0, 75.0}) {
        if (auto v = supportedPercentile(samples, q)) {
            s.tailQ = q;
            s.tail = *v;
            break;
        }
    }
    return s;
}

double
mean(const std::vector<double> &samples)
{
    if (samples.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : samples)
        sum += v;
    return sum / static_cast<double>(samples.size());
}

} // namespace perfbench
