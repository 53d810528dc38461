/**
 * @file
 * Log-bucketed (HDR-style) mergeable histograms with streaming
 * quantiles.
 *
 * The registry's one histogram type. It suits values that span many
 * orders of magnitude — latencies, whose serving contract is the tail,
 * and the measured WER, which spans ~10 decades across the grid — as
 * well as narrow integer-valued ones (PID settle steps):
 *
 *  - buckets are logarithmic — each power-of-two octave is split into
 *    32 linear sub-buckets, bounding the relative error of any
 *    reported quantile at ~3% while covering [2^-64, 2^64) in a fixed
 *    4096-bucket table;
 *  - recording is one thread-local shard update (no lock, no CAS):
 *    each thread gets its own shard on first record, and shards are
 *    merged in deterministic creation order at read time. Bucket
 *    counts are integer adds, so the merged buckets — and every
 *    quantile derived from them — are bit-identical for the same
 *    recorded multiset at any thread count and any schedule;
 *  - quantiles (p50/p90/p99/p999) are computed from the merged bucket
 *    table: the reporting value of the bucket containing the requested
 *    rank, i.e. a deterministic function of the bucket counts.
 *
 * Histograms register in the stats Registry under dotted paths like
 * any other stat (Registry::histogram()), and like any other stat they
 * are compared by manifest digests and stats_diff unless their *name*
 * is excluded (obs::digestExcludes). Wall-clock histograms are named
 * with a path segment ending in `_ns` (campaign.cell_ns, par.task_ns,
 * serve.latency_ns.*), which the name rule excludes. A deterministic
 * value stream (campaign.wer, thermal.settle_steps) is published
 * through publishHistogram(), so a sweep applies it in cell order on
 * one thread: its buckets, extrema, quantiles *and* its float sum are
 * then bit-identical at any thread count.
 */

#ifndef DFAULT_OBS_HISTOGRAM_HH
#define DFAULT_OBS_HISTOGRAM_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dfault::obs {

/**
 * Immutable merged view of a Histogram at one point in time. All
 * quantile math happens here, on plain integers, so two snapshots of
 * the same recorded multiset compare equal field for field; sum/mean
 * also match when the records arrive in the same order on one thread
 * (see file comment).
 */
struct HistogramSnapshot
{
    std::uint64_t count = 0; ///< all records, including non-positive
    std::uint64_t zeros = 0; ///< records <= 0 (kept out of buckets)
    double sum = 0.0;        ///< float sum, added up in shard order
    double min = 0.0;        ///< exact smallest recorded value
    double max = 0.0;        ///< exact largest recorded value

    /** Non-empty buckets, ascending: {bucket index, count}. */
    std::vector<std::pair<int, std::uint64_t>> buckets;

    double mean() const;

    /**
     * Value at quantile @p q in [0, 1]: the reporting value (geometric
     * bucket midpoint) of the bucket holding rank ceil(q * count).
     * Non-positive records rank below every bucket and report 0.
     * Returns 0 when empty; q=0 reports the exact min, q=1 the bucket
     * value covering the max.
     */
    double quantile(double q) const;

    double p50() const { return quantile(0.50); }
    double p90() const { return quantile(0.90); }
    double p99() const { return quantile(0.99); }
    double p999() const { return quantile(0.999); }
};

/** See file comment. */
class Histogram
{
  public:
    /** Sub-buckets per power-of-two octave (32 -> ~3% rel. error). */
    static constexpr int kSubBuckets = 32;
    /** Binary exponents covered: [-kMinExp2, kMinExp2). */
    static constexpr int kMinExp2 = 64;
    static constexpr int kBucketCount = 2 * kMinExp2 * kSubBuckets;

    Histogram();
    ~Histogram();
    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

    /**
     * Record one sample. Values <= 0 (and NaN) count toward count()
     * and the zero bin but not the log buckets; values outside the
     * covered range clamp to the first/last bucket. Thread-safe and
     * lock-free: touches only the calling thread's shard.
     */
    void record(double value);

    /** Bucket index a positive value lands in (clamped). */
    static int bucketIndex(double value);

    /** Reporting value of bucket @p index (geometric midpoint). */
    static double bucketValue(int index);

    /**
     * Lower edge of bucket @p index. No product code reads it; it is
     * kept as the independent bucket-boundary oracle that the
     * histogram tests check bucketIndex against.
     */
    static double bucketLowerEdge(int index);

    /** Merge every shard (deterministic shard order) into a snapshot. */
    HistogramSnapshot snapshot() const;

    /** Total records across all shards. */
    std::uint64_t count() const { return snapshot().count; }

    /** Convenience: snapshot().quantile(q). */
    double quantile(double q) const { return snapshot().quantile(q); }

    /** Zero every shard (for Registry::resetAll and tests). */
    void reset();

  private:
    struct Shard;

    Shard &localShard();

    /** Process-unique id: keys the thread-local shard cache, so a
     *  histogram address reused after destruction cannot alias a
     *  stale cache entry. */
    const std::uint64_t id_;

    mutable std::mutex mutex_; ///< guards shards_ growth and snapshot
    std::vector<std::unique_ptr<Shard>> shards_; ///< creation order
};

} // namespace dfault::obs

#endif // DFAULT_OBS_HISTOGRAM_HH
