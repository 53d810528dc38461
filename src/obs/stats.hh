/**
 * @file
 * Hierarchical statistics registry (gem5-style).
 *
 * Stats live under dotted paths ("platform.mem.l2.miss_rate") in a
 * process-wide (or test-local) Registry. Four kinds are supported:
 *
 *  - Counter       monotonically increasing integer (events, commands);
 *  - Gauge         last-written / accumulated floating-point value;
 *  - Formula       value derived from other stats at dump time
 *                  (ratios, rates), evaluated lazily;
 *  - Histogram     log-bucketed mergeable histogram with streaming
 *                  quantiles (obs/histogram.hh), recorded via
 *                  thread-local shards.
 *
 * Which stats a manifest digest or stats_diff compares is decided by
 * name alone (obs::digestExcludes), never by kind.
 *
 * Instrumented components resolve their stats once (construction or
 * first publish) and then touch plain atomics, so the steady-state cost
 * of an update is one relaxed atomic op; components that keep their own
 * internal counters (caches, MCUs, cores) instead publish snapshots
 * after each run, leaving their hot paths untouched.
 *
 * Registration is idempotent: requesting an existing name with the same
 * kind returns the existing stat; a kind mismatch is a library bug and
 * panics. Names must be non-empty dotted paths of [A-Za-z0-9_] segments.
 */

#ifndef DFAULT_OBS_STATS_HH
#define DFAULT_OBS_STATS_HH

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/histogram.hh"

namespace dfault::obs {

/** Discriminates the stat kinds a Registry can hold. */
enum class StatKind
{
    Counter,
    Gauge,
    Formula,
    Histogram,
};

/** "counter" / "gauge" / "formula" / "histogram". */
std::string statKindName(StatKind kind);

/** Monotonic event counter. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }
    Counter &operator++()
    {
        inc();
        return *this;
    }
    Counter &operator+=(std::uint64_t n)
    {
        inc(n);
        return *this;
    }

    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-written (or accumulated) floating-point value. */
class Gauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }

    /** Atomic accumulate (used by timers). */
    void add(double delta)
    {
        double cur = value_.load(std::memory_order_relaxed);
        while (!value_.compare_exchange_weak(cur, cur + delta,
                                             std::memory_order_relaxed)) {
        }
    }

    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { set(0.0); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * One stat as the manifest digest reads it: name and a scalar view,
 * plus the full snapshot for histograms. Produced by
 * Registry::sample().
 */
struct StatSample
{
    std::string name;
    /** Counter/gauge/formula value; histogram mean. */
    double value = 0.0;
    std::optional<HistogramSnapshot> hist;
};

/** Value derived from other stats; evaluated on read. */
class Formula
{
  public:
    explicit Formula(std::function<double()> fn) : fn_(std::move(fn)) {}

    double value() const { return fn_ ? fn_() : 0.0; }

  private:
    std::function<double()> fn_;
};

/** See file comment. */
class Registry
{
  public:
    /** The process-wide registry used by instrumented components. */
    static Registry &instance();

    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /**
     * Look up or create a stat. Panics if @p name is already registered
     * with a different kind, or if the name is not a valid dotted path.
     * Returned references stay valid for the registry's lifetime.
     */
    Counter &counter(const std::string &name,
                     const std::string &description = "");
    Gauge &gauge(const std::string &name,
                 const std::string &description = "");
    Formula &formula(const std::string &name, std::function<double()> fn,
                     const std::string &description = "");
    Histogram &histogram(const std::string &name,
                         const std::string &description = "");

    bool has(const std::string &name) const;
    StatKind kindOf(const std::string &name) const; ///< panics if absent
    std::size_t size() const;

    /** All registered names in sorted (hierarchical) order. */
    std::vector<std::string> names() const;

    /** Scalar value of a stat (a Histogram reports its mean). */
    double value(const std::string &name) const;

    /**
     * One StatSample per registered stat, in name order. The whole
     * pass holds the registry mutex (like dumpText), so the *set* of
     * stats is consistent; individual values are the usual relaxed
     * reads. Formulas must not touch the registry from their
     * callbacks (they capture stat references instead — see the
     * miss_rate formula in mem/hierarchy.cc and the speedup formula
     * in par/pool.cc), or this would self-deadlock.
     */
    std::vector<StatSample> sample() const;

    /** Zero every counter/gauge/histogram; formulas re-derive. */
    void resetAll();

    /**
     * gem5-style text dump: one "name  value  # description" line per
     * stat in hierarchical order; histograms expand into .count/
     * .mean/.min/quantile/.max lines.
     */
    void dumpText(std::FILE *out) const;

    /** The whole registry as one JSON object keyed by stat name. */
    std::string toJson() const;

    /**
     * Write the registry to @p path: JSON when the path ends in
     * ".json", text dump otherwise. Returns false if the file cannot
     * be opened.
     */
    bool writeFile(const std::string &path) const;

  private:
    struct Entry
    {
        StatKind kind;
        std::string description;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Formula> formula;
        std::unique_ptr<Histogram> histogram;
    };

    Entry &findOrCreate(const std::string &name, StatKind kind,
                        const std::string &description);

    mutable std::mutex mutex_;
    std::map<std::string, Entry> entries_;
};

} // namespace dfault::obs

#endif // DFAULT_OBS_STATS_HH
