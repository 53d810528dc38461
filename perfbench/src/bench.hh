/**
 * @file
 * Shared machinery of the end-to-end benchmark binary: run options,
 * host timing, output digests, the per-run report, and the span
 * tracer the traced runs use to attribute time to layers.
 *
 * Spans are recorded here, in the benchmark's own code, around calls
 * into the library layers; the library is never instrumented for the
 * benchmark.
 */

#ifndef DFAULT_PERFBENCH_BENCH_HH
#define DFAULT_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Pool size every workload runs with; DFAULT_THREADS is ignored. */
constexpr int kThreads = 2;

/** Largest share of a measured phase the layer ledger may leave
 *  unattributed, in percent. */
constexpr double kUnattributedBoundPct = 10.0;

/** Seed used when --seed is not given. */
constexpr std::uint64_t kDefaultSeed = 1;

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    /** Expected-output file (perfbench/expected.json). */
    std::string expectedPath;
};

double secondsSince(Clock::time_point start);

/** User + system CPU seconds of the whole process so far. */
double processCpuSeconds();

/** Peak resident set size of the process, MiB. */
double peakRssMib();

/** Linear-interpolated quantile (q in [0, 1]) of @p v; 0 if empty. */
double quantile(std::vector<double> v, double q);
double median(const std::vector<double> &v);

/** FNV-1a digest over a canonical byte encoding of the outputs. */
class Digest
{
  public:
    void add(double v);
    void add(std::uint64_t v);
    void add(const std::string &s);
    std::string hex() const;

  private:
    std::uint64_t h_ = 1469598103934665603ULL;
    void bytes(const void *p, std::size_t n);
};

/** Expected output digests, keyed "<workload>.<output>". */
class Expectations
{
  public:
    /** Load a flat JSON object of string values; fatal on error. */
    static Expectations load(const std::string &path);

    /** The stored digest for @p key, or "" if absent. */
    std::string get(const std::string &key) const;

  private:
    std::map<std::string, std::string> values_;
};

/**
 * Aggregating span tracer. Spans nest per thread; a span's self time
 * is its duration minus the time its same-thread children cover.
 * Only the totals per span name are kept.
 */
class Tracer
{
  public:
    struct Totals
    {
        std::uint64_t count = 0;
        double seconds = 0.0;
        double selfSeconds = 0.0;
    };

    static Tracer &instance();

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    void begin(const char *name);
    /** Ends the innermost open span; returns its duration. */
    double end();

    Totals totals(const std::string &name) const;

  private:
    bool enabled_ = false;
    mutable std::mutex mutex_; ///< guards totals_
    /** Per span name; names are string literals, few and fixed. */
    std::vector<std::pair<const char *, Totals>> totals_;
};

/** RAII span; a no-op while the tracer is disabled. */
class Span
{
  public:
    explicit Span(const char *name);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    bool active_;
};

/** One row of a layer ledger. */
struct LedgerRow
{
    std::string layer;
    double seconds = 0.0;
};

/**
 * Print a ledger: each layer's self time and share of @p phase, then
 * the unattributed remainder. Returns the unattributed share, percent.
 */
double printLedger(const std::string &title, double phaseSeconds,
                   const std::vector<LedgerRow> &rows);

/** printLedger of the traced spans: the measured phase is span
 *  @p phase, the rows are the self times of its child spans
 *  @p layers. */
double printSpanLedger(const std::string &title, const char *phase,
                       const std::vector<const char *> &layers);

/** The numbers one run reports. */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);
    void ops(std::uint64_t attempted, std::uint64_t failed);
    /** Record an output check; a mismatch marks the run incorrect. */
    bool check(const std::string &what, const std::string &got,
               const std::string &expected);
    void fail(const std::string &why);

    std::uint64_t attempted() const { return attempted_; }
    bool correct() const { return correct_; }

    /** Print the result object as the last line of stdout. */
    void print() const;

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool correct_ = true;
    std::set<std::string> reported_; ///< checks already printed
};

/** Wall seconds of every set-up and every pass of a timed phase. */
struct Timings
{
    std::vector<double> setups;
    std::vector<double> passes;
};

/**
 * Run timed passes while another fits in @p seconds (at least one).
 * Before the first pass and every @p passesPerSetup passes after it,
 * @p setup runs @p setupReps times, each timed and each preceded by an
 * untimed @p teardown that drops what the previous one built. A
 * @p pass returns its own wall seconds. Spreading the set-ups over the
 * run keeps their median off any one slow stretch of a shared host.
 */
Timings timedIterations(double seconds, int setupReps, int passesPerSetup,
                        const std::function<void()> &teardown,
                        const std::function<void()> &setup,
                        const std::function<double()> &pass);

/** setup_s, wall_s and ops_per_s (@p opsPerPass / wall_s) from the
 *  medians of @p t, and a line with every time. */
void reportTimings(Report &report, const Timings &t, double opsPerPass);

/**
 * Op latencies of a run, summarised per pass: req_p50_us and
 * req_p99_us are the medians over passes of each pass's quantile, so
 * one slow stretch of a shared host moves them no more than it moves
 * wall_s.
 */
class OpLatency
{
  public:
    /** Record the op latencies, seconds, of one pass. */
    void pass(const std::vector<double> &seconds);
    void report(Report &report) const;

  private:
    std::vector<double> p50_, p99_;
    std::size_t samples_ = 0;
};

/**
 * Op latencies of a run whose passes repeat the same ops: req_p50_us
 * and req_p99_us are quantiles over the ops of each op's median over
 * passes. A pass holds too few ops near its median for a per-pass
 * quantile to be steady, so every quantile here rests on all passes.
 */
class RepeatedOpLatency
{
  public:
    /** Record the op latencies, seconds, of one pass, each op in the
     *  same place in every pass. */
    void pass(const std::vector<double> &seconds);
    void report(Report &report) const;

  private:
    std::vector<std::vector<double>> ops_; ///< per op, one per pass
};

/**
 * Alternate untraced and traced passes while another pair fits in
 * @p seconds (at least one pair), then report obs.trace_overhead_pct
 * from the two medians and par.cpu_per_wall.
 */
void tracedPasses(double seconds, const std::function<double()> &pass,
                    Report &report);

int runCampaignCold(const Options &opt, const Expectations &exp,
                    Report &report);
int runCampaignWarm(const Options &opt, const Expectations &exp,
                    Report &report);
int runLoboTrain(const Options &opt, const Expectations &exp,
                 Report &report);
int runServeFleet(const Options &opt, const Expectations &exp,
                  Report &report);

} // namespace perfbench

#endif // DFAULT_PERFBENCH_BENCH_HH
