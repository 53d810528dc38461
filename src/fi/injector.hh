/**
 * @file
 * Deterministic fault injection.
 *
 * The injector holds a set of *armed fault points* — named places in
 * the pipeline that ask "should I fail here?" before doing their real
 * work. A point that is not armed costs one relaxed atomic load, so
 * the checks stay in production code paths permanently.
 *
 * Fault schedules are seeded: whether a check fires is a pure function
 * of (spec seed, point name, caller key, attempt), so a chaos run is
 * exactly reproducible and a retried attempt re-rolls deterministically
 * rather than hitting the same fault forever. Points are armed from the
 * DFAULT_FAULTS environment variable at first use, or programmatically
 * via arm().
 *
 * Spec grammar (see docs/robustness.md):
 *
 *     spec   := point [":" param ("," param)*] (";" spec)?
 *     param  := key "=" value
 *
 * e.g. DFAULT_FAULTS='task.throw:every=3,max_attempt=1;sweep.kill:after=4'
 *
 * Parameters:
 *   rate=P        fire with probability P per eligible check (default 1)
 *   every=N       fire only when key %% N == 0 (default: any key)
 *   below=N       fire only when key < N (default: any key). Unlike
 *                 count=/after= this is a pure function of the key, so
 *                 a burst stays bit-identical at any thread count —
 *                 the primitive behind the CI breaker-burst case
 *   max_attempt=N fire only when attempt < N, so retries recover
 *   count=N       total fire budget for the point (default unlimited)
 *   after=N       first N checks of the point never fire (arrival order)
 *   seed=S        schedule seed (default 0xfau17)
 *   code=C        process exit code used by kill-style points (default 9)
 *   ms=N          sleep length used by stall-style points (default 1000)
 *
 * Known points: task.throw (par::Pool task body), task.stall and
 * measure.nan (CharacterizationCampaign::measureCell), io.open / io.write
 * / io.short_write (fi::atomicWriteFile), sweep.kill (campaign
 * checkpoint journal), shutdown.slow_drain (dfault_cli shutdown
 * epilogue), serve.slow / serve.error / serve.reject
 * (serve::PredictionService, keyed by submission id), serve.kill
 * (_Exit between the tick commit and its journal write, keyed by
 * tick), journal.write / journal.torn_segment (any journal record
 * write — sweep cell, serve segment or snapshot — fails outright /
 * lands half-written, keyed by the record index; obs/record_dir.hh).
 * task.stall was named campaign.hang before
 * it gained real stall semantics (it used to throw; see
 * docs/robustness.md).
 */

#ifndef DFAULT_FI_INJECTOR_HH
#define DFAULT_FI_INJECTOR_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dfault::fi {

/** Thrown by firing fault points; carries the point name. */
class FaultError : public std::runtime_error
{
  public:
    FaultError(std::string point, const std::string &message)
        : std::runtime_error(message), point_(std::move(point))
    {
    }

    /** Name of the fault point that fired. */
    const std::string &point() const { return point_; }

  private:
    std::string point_;
};

/** Parsed parameters of one armed fault point. */
struct FaultSpec
{
    double rate = 1.0;
    std::uint64_t every = 0; ///< 0 = no key gate
    std::uint64_t below = ~0ULL; ///< fire only when key < below
    int maxAttempt = 1 << 30;
    std::uint64_t count = ~0ULL;
    std::uint64_t after = 0;
    std::uint64_t seed = 0xfa517;
    int exitCode = 9;
    std::uint64_t sleepMs = 1000;
};

/**
 * Process-global registry of armed fault points.
 *
 * arm()/disarm() are meant for setup code (env, config parsing, test
 * fixtures) before parallel work starts; shouldFire() is safe to call
 * concurrently from pool workers.
 */
class Injector
{
  public:
    /** The process-wide injector, armed from DFAULT_FAULTS on first use. */
    static Injector &instance();

    /**
     * Parse @p spec (grammar above) and arm its points, replacing any
     * existing spec for the same point name. Fatal on malformed specs:
     * they only come from user config.
     */
    void arm(const std::string &spec);

    /** Disarm every point and forget all check/fire counters. */
    void disarm();

    /** True when at least one point is armed (one relaxed load). */
    bool armed() const { return armed_.load(std::memory_order_relaxed); }

    /**
     * True when point @p point fires for (@p key, @p attempt). Counts
     * the check and consumes fire budget when it does fire.
     */
    bool shouldFire(std::string_view point, std::uint64_t key,
                    int attempt = 0);

    /** Throw FaultError when shouldFire(); no-op otherwise. */
    void maybeThrow(std::string_view point, std::uint64_t key,
                    int attempt = 0);

    /**
     * Terminate the process with the point's exit code (via _Exit, no
     * cleanup — models a kill) when shouldFire(); no-op otherwise.
     */
    void maybeKill(std::string_view point, std::uint64_t key = 0);

    /**
     * Sleep for the point's ms= budget (models a stuck task / slow
     * drain) when shouldFire(); no-op otherwise. The sleep is a plain
     * bounded std::this_thread::sleep_for — long enough to trip the
     * par::Pool watchdog deterministically when ms exceeds the armed
     * task_timeout, short enough that chaos tests never rely on real
     * unbounded hangs. Returns true when it slept.
     */
    bool maybeStall(std::string_view point, std::uint64_t key,
                    int attempt = 0);

    /** Times the point fired since it was armed. */
    std::uint64_t firedCount(std::string_view point) const;

    /** (point, fired) for every armed point, name-sorted. */
    std::vector<std::pair<std::string, std::uint64_t>> firedCounts() const;

  private:
    struct Point
    {
        FaultSpec spec;
        std::uint64_t checks = 0;
        std::uint64_t fired = 0;
    };

    const Point *findLocked(std::string_view point) const;

    mutable std::mutex mutex_;
    std::map<std::string, Point, std::less<>> points_;
    std::atomic<bool> armed_{false};
};

} // namespace dfault::fi

#endif // DFAULT_FI_INJECTOR_HH
