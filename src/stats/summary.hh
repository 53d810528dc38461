/**
 * @file
 * Streaming descriptive statistics.
 */

#ifndef DFAULT_STATS_SUMMARY_HH
#define DFAULT_STATS_SUMMARY_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

namespace dfault::stats {

/**
 * Single-pass mean/variance/min/max accumulator (Welford's algorithm).
 *
 * Numerically stable for long streams; O(1) memory.
 */
class RunningStats
{
  public:
    /** Add one observation. */
    void add(double x);

    /** Merge another accumulator (parallel reduction). */
    void merge(const RunningStats &other);

    /** Number of observations added. */
    std::uint64_t count() const { return count_; }

    /** Arithmetic mean; 0 when empty. */
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Unbiased sample variance; 0 with fewer than two observations. */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    /** Smallest observation; +inf when empty. */
    double min() const { return min_; }

    /** Largest observation; -inf when empty. */
    double max() const { return max_; }

    /** Sum of all observations. */
    double sum() const { return mean_ * static_cast<double>(count_); }

    /** Reset to the empty state. */
    void reset();

  private:
    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

inline void
RunningStats::add(double x)
{
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

/**
 * Quantile of a sample using linear interpolation between order
 * statistics (type-7, the numpy default). @p q in [0, 1].
 */
double quantile(std::vector<double> values, double q);

/** Median convenience wrapper around quantile(). */
double median(std::vector<double> values);

} // namespace dfault::stats

#endif // DFAULT_STATS_SUMMARY_HH
