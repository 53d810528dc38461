#include "stats/summary.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace dfault::stats {

void
RunningStats::merge(const RunningStats &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    const auto na = static_cast<double>(count_);
    const auto nb = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    const double total = na + nb;
    mean_ += delta * nb / total;
    m2_ += other.m2_ + delta * delta * na * nb / total;
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double
RunningStats::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

void
RunningStats::reset()
{
    *this = RunningStats();
}

double
quantile(std::vector<double> values, double q)
{
    DFAULT_ASSERT(!values.empty(), "quantile of empty sample");
    DFAULT_ASSERT(q >= 0.0 && q <= 1.0, "quantile level out of range");
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = static_cast<std::size_t>(std::ceil(pos));
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

} // namespace dfault::stats
