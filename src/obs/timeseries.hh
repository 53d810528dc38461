/**
 * @file
 * Fixed-capacity per-stat sample rings for live telemetry.
 *
 * The registry is snapshot-at-exit by design; the sampler thread
 * (obs/sampler.hh) turns it into a stream by pushing one sample per
 * stat per tick into this store. Samples are keyed by *sample index*
 * (the sampler's tick counter), never by wall clock, so a replayed run
 * fed the same value sequence produces the same series, aggregates and
 * SLO verdicts — the same determinism contract the rest of the
 * telemetry stack keeps.
 *
 * Each series is a ring of the most recent `capacity` samples; pushes
 * past capacity overwrite the oldest sample (the stream's history of
 * record is the metrics scrape, not this buffer). Windowed aggregates
 * — rate per second, window min/max — are computed on demand
 * from the retained samples, folded oldest to newest, so they are a
 * pure function of the pushed sequence.
 *
 * Neither class locks: the store belongs to the sampler thread, which
 * is the only writer and the only reader while running. Tests and
 * post-stop consumers read it after the sampler has joined.
 */

#ifndef DFAULT_OBS_TIMESERIES_HH
#define DFAULT_OBS_TIMESERIES_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dfault::obs {

/** One sample: the sampler tick it was taken at, and the value. */
struct TsSample
{
    std::uint64_t tick = 0;
    double value = 0.0;
};

/** See file comment. */
class TimeSeries
{
  public:
    explicit TimeSeries(std::size_t capacity);

    /** Append one sample, evicting the oldest when full. Ticks must be
     *  non-decreasing (the sampler's counter only moves forward). */
    void push(std::uint64_t tick, double value);

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return capacity_; }

    /** Sample @p i of the retained window; 0 is the oldest held. */
    TsSample at(std::size_t i) const;

    /** Most recent sample; size() must be > 0. */
    TsSample latest() const;

    /** Smallest / largest value among the last min(window, size())
     *  samples. 0 when the series is empty. */
    double windowMin(std::size_t window) const;
    double windowMax(std::size_t window) const;

    /**
     * Per-second growth rate of a cumulative counter over the last
     * min(window, size()) samples: (last - first) / (tick span *
     * @p interval_seconds). Tick spacing stands in for wall clock, so
     * the rate is deterministic for a deterministic sample sequence.
     * Returns 0 with fewer than two samples, a zero tick span, or a
     * negative delta (counter reset).
     */
    double ratePerSecond(std::size_t window, double interval_seconds) const;

  private:
    std::size_t capacity_;
    std::vector<TsSample> ring_;
    std::size_t head_ = 0; ///< next write position
    std::size_t size_ = 0;
};

/** Name-keyed collection of series sharing one ring capacity. */
class TimeSeriesStore
{
  public:
    explicit TimeSeriesStore(std::size_t capacity = 512);

    /** Find or create the series for @p name. */
    TimeSeries &series(const std::string &name);

    /** The series for @p name, or nullptr when never pushed. */
    const TimeSeries *find(const std::string &name) const;

    std::vector<std::string> names() const;
    std::size_t size() const { return map_.size(); }
    std::size_t capacity() const { return capacity_; }

  private:
    std::size_t capacity_;
    std::map<std::string, TimeSeries> map_;
};

} // namespace dfault::obs

#endif // DFAULT_OBS_TIMESERIES_HH
