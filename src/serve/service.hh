/**
 * @file
 * Resilient online prediction service for fleet-scale inference.
 *
 * The AIOps framing of DRAM error prediction (ROADMAP item 2) serves a
 * trained model to an entire datacenter fleet, where overload and
 * partial failure are the steady state, not the exception. This
 * service fronts an ml::Regressor with the production robustness
 * layer that framing requires:
 *
 *  - a *bounded* MPMC request queue with explicit admission control —
 *    when the queue is full a submission is rejected with a reason
 *    (never queued unboundedly, never silently dropped);
 *  - *priority-aware load shedding* — mitigation-critical and
 *    health-check traffic survives pressure; bulk re-scoring sheds
 *    first. A full queue evicts the newest request of the least
 *    important class to make room for a more important arrival;
 *  - a per-shard *circuit breaker* (closed -> open -> half-open)
 *    driven by consecutive-failure and rolling-error-rate thresholds.
 *    Cooldown is measured in service ticks, never wall clock, so a
 *    replayed chaos run transitions on exactly the same tick;
 *  - *degraded-mode fallback* — on an open breaker, deadline
 *    pressure, or an exhausted retry budget, the request is answered
 *    from a cheaper path (the last-known-good cached prediction for
 *    the same key, else a caller-provided fallback model such as a
 *    single-tree forest slice) with degraded=true stamped on the
 *    response.
 *
 * Execution model: the service is *tick-driven and batched*. Callers
 * submit() requests (thread-safe), then tick() selects up to
 * budgetPerTick requests — critical first, bulk last, FIFO within a
 * class — and fans the batch out over par::Pool with the existing
 * retry / cancellation / heartbeat machinery. Results, breaker
 * transitions and the last-known-good cache are then committed in
 * request-index order, so the entire disposition sequence is a pure
 * function of the submission sequence and the armed fault schedule:
 * a faulted serving run reaches bit-identical serve.* counters at any
 * thread count (CI-gated at 1/2/8 threads).
 *
 * Every submission is accounted for exactly once: it ends Served,
 * Degraded, or Shed (with a reason), and the conservation law
 * submitted == served + degraded + shed holds over the counters.
 *
 * Fault points (docs/robustness.md): serve.slow (bounded stall inside
 * the primary predict), serve.error (primary predict throws),
 * serve.reject (admission rejects despite free capacity). All are
 * keyed by the request id, so a chaos schedule is independent of
 * arrival order and thread count.
 *
 * Telemetry: deterministic counters live under serve.* and are part
 * of the manifest digest; cadence-dependent live state (queue depth,
 * breaker state gauges) lives under serve.live.* and is digest- and
 * stats_diff-excluded like ts./slo./live. (docs/serving.md). Breaker
 * transitions emit "serve_breaker" JSONL events with the tick number.
 */

#ifndef DFAULT_SERVE_SERVICE_HH
#define DFAULT_SERVE_SERVICE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ml/regressor.hh"
#include "obs/deferral.hh"
#include "obs/stats.hh"
#include "par/cancel.hh"

namespace dfault::serve {

struct JournalState;

/**
 * Request importance class. Order is shedding order reversed: Bulk
 * sheds first, Critical last (and only when the queue holds nothing
 * less important).
 */
enum class Priority
{
    Critical = 0, ///< mitigation-critical (page offline / refresh boost)
    Health = 1,   ///< health checks and SLO probes
    Bulk = 2      ///< background fleet re-scoring
};

constexpr int kPriorityCount = 3;

/** "critical" / "health" / "bulk". */
const char *priorityName(Priority p);

/** Final disposition of one submission (exactly one per request). */
enum class Disposition
{
    Served,   ///< primary model answered
    Degraded, ///< answered from the cheap path (LKG cache / fallback)
    Shed      ///< rejected or dropped, with a reason; no prediction
};

/** "served" / "degraded" / "shed". */
const char *dispositionName(Disposition d);

/** Circuit breaker state (per shard). */
enum class BreakerState
{
    Closed,  ///< normal service
    Open,    ///< failing; all requests take the degraded path
    HalfOpen ///< cooldown elapsed; probing with a bounded trickle
};

/** "closed" / "open" / "half_open". */
const char *breakerStateName(BreakerState s);

/** One prediction request. */
struct Request
{
    /**
     * Stable identity of the subject (e.g. fleet DIMM index). Keys the
     * last-known-good cache; unrelated to the fault schedule, which
     * uses the submission id.
     */
    std::uint64_t key = 0;
    Priority priority = Priority::Bulk;
    int shard = 0; ///< clamped into [0, shards)
    std::vector<double> features;
};

/** The disposition of one submission. */
struct Response
{
    std::uint64_t id = 0;  ///< submission sequence number
    std::uint64_t key = 0; ///< Request::key
    Priority priority = Priority::Bulk;
    int shard = 0;
    Disposition disposition = Disposition::Shed;
    bool degraded = false;    ///< true iff disposition == Degraded
    double prediction = 0.0;  ///< NaN when shed
    std::string reason;       ///< why shed / why degraded ("" if served)
};

/** Circuit breaker thresholds; all windows and cooldowns in ticks. */
struct BreakerParams
{
    /** Consecutive primary failures on a shard that open its breaker. */
    int consecutiveFailures = 4;

    /**
     * Rolling error-rate trip: with at least errorRateWindow outcomes
     * recorded, a failure fraction >= errorRateThreshold opens the
     * breaker even without a consecutive run.
     */
    double errorRateThreshold = 0.5;
    int errorRateWindow = 16;

    /** Ticks an open breaker waits before probing (half-open). */
    int cooldownTicks = 4;

    /**
     * Requests admitted per tick while half-open. That many
     * consecutive probe successes close the breaker; any probe
     * failure reopens it and restarts the cooldown.
     */
    int halfOpenProbes = 2;
};

/** Service tuning. */
struct Params
{
    /** Queue slots across all priority classes (admission bound). */
    std::size_t queueCapacity = 256;

    /** Primary predictions executed per tick (the service rate). */
    std::size_t budgetPerTick = 64;

    /**
     * Deadline pressure: a request queued for this many ticks is
     * answered from the degraded path instead of waiting for budget.
     * 0 disables (requests wait indefinitely).
     */
    std::uint64_t degradeAfterTicks = 0;

    /** Independent breaker domains; Request::shard selects one. */
    int shards = 1;

    /** Retries per request before it falls to the degraded path. */
    int maxRetries = 1;

    BreakerParams breaker;

    /** Cancellation source; invalid falls back to rootCancelToken(). */
    par::CancelToken token;

    /** Stats destination; nullptr selects Registry::instance(). */
    obs::Registry *registry = nullptr;

    /**
     * Directory for the write-ahead journal (serve/journal.hh); ""
     * disables durability. A non-empty directory restores the service
     * to its last durable tick at construction and appends one record
     * per tick thereafter.
     */
    std::string journalDir;

    /**
     * Cadence, in ticks, of compacted full-state snapshots (a
     * snapshot replaces the ordinary segment on its tick). Excluded
     * from the journal config digest, like the thread count: it
     * cannot change results. 0 disables snapshots (segments only).
     */
    std::uint64_t snapshotEveryTicks = 32;

    /**
     * Caller-provided configuration entropy folded into the journal
     * config digest — hash the traffic/workload knobs that determine
     * the submission sequence into this. A journal written under a
     * different digest is quarantined and the service starts fresh,
     * never silently replays.
     */
    std::uint64_t journalSalt = 0;
};

/** See file comment. */
class PredictionService
{
  public:
    /**
     * @param primary   the trained model (not owned; must outlive the
     *                  service and be safe for concurrent predict()).
     * @param fallback  optional cheap model for the degraded path
     *                  (e.g. ml::ForestSliceRegressor); nullptr means
     *                  only the last-known-good cache can degrade.
     */
    PredictionService(const ml::Regressor &primary, const Params &params,
                      const ml::Regressor *fallback = nullptr);
    ~PredictionService();

    PredictionService(const PredictionService &) = delete;
    PredictionService &operator=(const PredictionService &) = delete;

    /**
     * Submit one request. Thread-safe. Admission control runs here:
     * the request is either queued, or immediately shed (queue full
     * with nothing less important to evict, injected serve.reject, or
     * cancelled token) — in which case its Shed response is already
     * waiting in takeResponses(). Returns the submission id.
     */
    std::uint64_t submit(Request request);

    /**
     * Run one service cycle: advance breaker cooldowns, degrade
     * requests past their deadline or behind an open breaker, select
     * up to budgetPerTick requests (priority order, half-open shards
     * capped at halfOpenProbes), execute them on par::Pool, and
     * commit results + breaker transitions in request order. Returns
     * the number of requests resolved this tick. Not reentrant; call
     * from one driver thread (submissions may race freely).
     */
    std::size_t tick();

    /**
     * tick() until the queue is empty (or @p maxTicks elapse, or the
     * cancel token fires — a cancelled tick sheds every queued
     * request, so the queue still empties). Returns ticks run.
     */
    std::size_t drain(std::size_t maxTicks = 1000000);

    /** Move out every response accumulated so far, in decision order. */
    std::vector<Response> takeResponses();

    std::size_t queueDepth() const;
    BreakerState breakerState(int shard) const;
    std::uint64_t ticks() const { return tick_; }

    /** Last-known-good cached prediction for @p key, if any. */
    std::optional<double> lastKnownGood(std::uint64_t key) const;

    /**
     * Tick this service was restored to from Params::journalDir, or
     * -1 when it started fresh (no journal, or nothing durable in
     * it). Drivers skip the work of ticks <= this on resume; the
     * harness records it as the manifest's resumed_from_tick.
     */
    std::int64_t resumedFromTick() const { return resumedFromTick_; }

  private:
    struct Pending
    {
        std::uint64_t id = 0;
        std::uint64_t key = 0;
        Priority priority = Priority::Bulk;
        int shard = 0;
        std::uint64_t enqueueTick = 0;
        std::vector<double> features;
    };

    struct Breaker
    {
        BreakerState state = BreakerState::Closed;
        int consecutive = 0;            ///< consecutive failures (closed)
        std::deque<char> window;        ///< rolling outcomes, 1 = failure
        int windowFailures = 0;
        std::uint64_t openedTick = 0;   ///< tick of the last open
        int probeSuccesses = 0;         ///< consecutive successes half-open
    };

    // All private helpers assume mutex_ is held.
    void shedLocked(Pending &&req, const std::string &reason);
    void degradeLocked(Pending &&req, const std::string &reason);
    void serveLocked(Pending &&req, double prediction);
    void transitionLocked(int shard, BreakerState to);
    void onPrimarySuccessLocked(int shard);
    void onPrimaryFailureLocked(int shard);
    void recordOutcomeLocked(Breaker &b, bool failure);
    void updateLiveGaugesLocked();
    std::size_t queueDepthLocked() const;
    par::CancelToken effectiveToken() const;
    void journalCommitLocked();
    void restoreFromJournal();

    const ml::Regressor &primary_;
    const ml::Regressor *fallback_;
    const Params params_;
    obs::Registry &registry_;

    mutable std::mutex mutex_;
    /** One FIFO per priority class, indexed by Priority. */
    std::vector<std::deque<Pending>> queues_;
    std::vector<Breaker> breakers_;
    std::vector<Response> responses_;
    std::unordered_map<std::uint64_t, double> lastKnownGood_;
    std::uint64_t nextId_ = 0;
    std::uint64_t tick_ = 0;
    /** Write-ahead journal state; nullptr when journalDir is empty. */
    std::unique_ptr<JournalState> journal_;
    std::int64_t resumedFromTick_ = -1;

    /** A registered serve.* counter, as the journal replays it. */
    struct NamedCounter
    {
        std::string name;
        std::string description;
        obs::Counter *counter;
    };
    obs::Counter &addCounter(const std::string &name,
                             const std::string &description);
    std::vector<std::uint64_t> counterValues() const;
    /** CounterInc ops for every serve.* counter that moved since @p mark. */
    std::vector<obs::StatOp>
    counterOpsSince(const std::vector<std::uint64_t> &mark) const;

    // Deterministic counters (manifest-digested), each also listed in
    // counters_ in registration order.
    std::vector<NamedCounter> counters_;
    obs::Counter &submitted_;
    obs::Counter &served_;
    obs::Counter &degraded_;
    obs::Counter &shed_;
    obs::Counter *shedByPriority_[kPriorityCount];
    obs::Counter &breakerOpened_;
    obs::Counter &breakerHalfOpened_;
    obs::Counter &breakerClosed_;
    obs::Counter &ticksTotal_;
    // Cadence-dependent live state (serve.live.*, digest-excluded).
    obs::Gauge &queueDepthGauge_;
    std::vector<obs::Gauge *> breakerGauges_;
    // Wall-clock latency per priority (histogram kind: never digested).
    obs::Histogram *latency_[kPriorityCount];
};

} // namespace dfault::serve

#endif // DFAULT_SERVE_SERVICE_HH
