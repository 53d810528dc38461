/**
 * @file
 * Deterministic work-stealing thread pool.
 *
 * The experiment matrix is embarrassingly parallel (workloads x
 * operating points x repeats, LOGO folds, forest trees, bootstrap
 * resamples), so the hot drivers fan their loops out over a small
 * work-stealing pool. Determinism is preserved by construction:
 *
 *  - every task is keyed by its index in the submitted range and must
 *    derive any randomness from (base_seed, index) via the Rng
 *    splitmix helpers — never from a stream shared across tasks;
 *  - results are committed into index-addressed slots, so the output
 *    is independent of the order in which workers finish;
 *  - any cross-task reduction (sums, event emission) is performed by
 *    the caller in index order after the batch completes.
 *
 * Under this contract a run with DFAULT_THREADS=8 is bit-identical to
 * a run with DFAULT_THREADS=1 (see docs/parallelism.md).
 *
 * Structure: each execution slot owns a deque; the caller pushes
 * chunked index ranges round-robin, takes slot 0 itself, and workers
 * pop their own deque LIFO and steal from peers FIFO when empty. A
 * pool of 1 thread spawns no workers and runs everything inline, which
 * doubles as the serial reference implementation. Nested parallelFor
 * calls (e.g. forest training inside a cross-validation fold) execute
 * inline on the calling worker, so recursion can never deadlock.
 *
 * Pool activity is instrumented through the obs:: registry: tasks
 * queued/executed, steals, and per-phase task/wall seconds with a
 * derived "speedup" formula (visible in --stats-out dumps). When the
 * span tracer is enabled (obs/span.hh), every executed task records a
 * "task" span parented to the submitter's open span, plus a flow
 * event pair linking the moment the task was queued to the moment a
 * slot picked it up — so a Perfetto view of a --trace-events run
 * shows dispatch arrows from the submitting thread to the workers.
 */

#ifndef DFAULT_PAR_POOL_HH
#define DFAULT_PAR_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "par/cancel.hh"

namespace dfault::par {

/**
 * Why a task slot produced no result. Cancelled is deliberately
 * distinct from Failed: cancelled tasks are never retried, never
 * quarantined, and publish no stats, so a cancelled-then-resumed sweep
 * digest-matches an uninterrupted one.
 */
enum class TaskDisposition
{
    Failed,   ///< exhausted its retry budget on real errors
    Cancelled ///< skipped (or stopped) because the run was cancelled
};

/** One task of a batch that produced no result. */
struct TaskFailure
{
    std::size_t index = 0; ///< index within the submitted [0, n) range
    int attempts = 0;      ///< executions performed (0 = never started)
    std::string error;     ///< what() of the final attempt
    TaskDisposition disposition = TaskDisposition::Failed;
};

/**
 * Thrown when a fail-fast batch had failing tasks. Unlike the old
 * first-exception-wins rethrow, every failed slot is reported: the
 * message leads with the failed/cancelled counts and lists each
 * affected index ([i] for failures, [i cancelled] for cancellations)
 * with its error, and failures() exposes them programmatically,
 * sorted by index. A batch whose only losses are cancellations throws
 * CancelledError instead (drivers catch the interrupt in one place).
 */
class BatchError : public std::runtime_error
{
  public:
    explicit BatchError(std::vector<TaskFailure> failures);

    const std::vector<TaskFailure> &failures() const { return failures_; }

  private:
    std::vector<TaskFailure> failures_;
};

/**
 * Raised out of par::heartbeat() after the watchdog flagged the
 * calling task as stalled. Travels the normal failure path: the task
 * is retried per its budget, then quarantined like any other failure.
 */
class TaskTimeoutError : public std::runtime_error
{
  public:
    explicit TaskTimeoutError(const std::string &msg)
        : std::runtime_error(msg)
    {
    }
};

/** Failure policy for parallelForResilient(). */
struct ResilienceOptions
{
    /**
     * Extra attempts given to a failing index before it is
     * quarantined. The body sees the attempt number and must key any
     * *fault* randomness on it while keeping its *result* randomness
     * attempt-independent, so a recovered retry is bit-identical to a
     * first-try success.
     */
    int maxRetries = 0;

    /**
     * true: throw BatchError after the batch drains (siblings still
     * ran to completion). false: return the quarantined tasks and let
     * the caller degrade gracefully.
     */
    bool failFast = true;
};

/**
 * Tuning for the pool watchdog thread (see enableWatchdog()). All
 * durations in seconds; 0 disables the respective check.
 */
struct WatchdogOptions
{
    /**
     * A monitored task whose last heartbeat is older than this is
     * flagged: a phase-stack diagnostic goes to stderr and the event
     * sink, and the task's next par::heartbeat() throws
     * TaskTimeoutError (feeding the regular retry/quarantine path).
     * Tasks are monitored between their heartbeats only, so code that
     * never beats is never failed by the watchdog — at most warned
     * about.
     */
    double taskTimeoutSeconds = 0.0;

    /** Whole-run budget from enableWatchdog(); on expiry the watchdog
     *  calls par::cancel() (origin "deadline") exactly once. */
    double deadlineSeconds = 0.0;
};

/**
 * Threads a fresh pool uses by default: the DFAULT_THREADS environment
 * variable when set (a positive integer), otherwise the hardware
 * concurrency (at least 1).
 */
int defaultThreads();

/** See file comment. */
class Pool
{
  public:
    /** @param threads total execution slots (including the caller). */
    explicit Pool(int threads);
    ~Pool();

    Pool(const Pool &) = delete;
    Pool &operator=(const Pool &) = delete;

    /**
     * The process-wide pool, lazily created with defaultThreads().
     * Campaigns, trainers and stats helpers all share it.
     */
    static Pool &global();

    /**
     * Replace the global pool with one of @p threads slots. Must not
     * be called while work is in flight (intended for drivers parsing
     * a threads= override and for the determinism tests).
     */
    static void setGlobalThreads(int threads);

    /** Total execution slots: worker threads plus the caller. */
    int threads() const { return threads_; }

    /**
     * Execution slot of the calling thread: 0 for the submitting
     * thread inside parallelFor, 1..threads-1 on workers, -1 outside
     * any pool execution. Callers use it to index per-slot replicas
     * (e.g. one sys::Platform per slot).
     */
    static int currentSlot();

    /**
     * Run body(i) for every i in [0, n) and block until all complete.
     *
     * The body must be safe to call concurrently for distinct indices
     * and must derive any randomness from its index (file comment).
     * A throwing index never aborts its siblings: the whole batch
     * drains, then a BatchError aggregating every failed index (not
     * just the first, as before) is thrown. Top-level calls are
     * serialized against each other; nested calls run inline.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body);

    /**
     * parallelFor with per-task failure isolation: a failing index is
     * retried up to opts.maxRetries times (the body receives the
     * attempt number), then quarantined. With opts.failFast the
     * drained batch throws BatchError; otherwise the quarantined
     * tasks are returned, sorted by index, and the caller decides
     * what a missing slot means. Either way sibling tasks always run
     * to completion. Once par::cancelled(), not-yet-started indices
     * and would-be retries are skipped with the Cancelled disposition;
     * a body that throws CancelledError is recorded the same way and
     * is never retried.
     */
    std::vector<TaskFailure>
    parallelForResilient(std::size_t n,
                         const std::function<void(std::size_t, int)> &body,
                         const ResilienceOptions &opts = {});

    /**
     * parallelFor committing fn(i) into slot i of the returned vector.
     * T must be default-constructible and movable. Do not instantiate
     * with bool (std::vector<bool> slots are not independent).
     */
    template <typename T>
    std::vector<T>
    parallelMap(std::size_t n, const std::function<T(std::size_t)> &fn)
    {
        static_assert(!std::is_same_v<T, bool>,
                      "vector<bool> elements alias; map to char instead");
        std::vector<T> out(n);
        parallelFor(n, [&](std::size_t i) { out[i] = fn(i); });
        return out;
    }

    /**
     * Start (or retune) the watchdog thread. Every poll tick (a
     * quarter of the shorter of task timeout and deadline, clamped to
     * [10 ms, 1 s]) it samples every slot's heartbeat board, dumps a
     * diagnostic for stalled tasks, and enforces the run deadline
     * (see WatchdogOptions).
     * Watchdog state is advisory telemetry: it never appears in the
     * stats digest (par.* is excluded).
     */
    void enableWatchdog(const WatchdogOptions &opts);

    /** Stop and join the watchdog thread (idempotent). */
    void disableWatchdog();

  private:
    struct Task
    {
        std::size_t begin = 0;
        std::size_t end = 0;
        std::uint64_t flowId = 0; ///< links queueing to execution in
                                  ///< the trace; 0 = tracing disabled
        struct Batch *batch = nullptr;
    };

    struct Slot
    {
        std::mutex mutex;
        std::deque<Task> queue;
    };

    void workerLoop(int slot);
    bool tryRun(int slot);
    void runTask(const Task &task);
    bool popOwn(int slot, Task &task);
    bool stealAny(int thief, Task &task);
    void watchdogLoop();

    const int threads_;
    std::vector<std::unique_ptr<Slot>> slots_;
    std::vector<std::unique_ptr<struct HeartbeatBoard>> boards_;
    std::vector<std::thread> workers_;

    std::mutex sleepMutex_;
    std::condition_variable sleepCv_;
    std::atomic<std::size_t> pending_{0}; ///< queued, not yet popped
    std::atomic<bool> stop_{false};

    /** Serializes top-level parallelFor calls (slot 0 is exclusive). */
    std::mutex submitMutex_;

    std::mutex watchdogMutex_;
    std::condition_variable watchdogCv_;
    bool watchdogStop_ = false;   ///< guarded by watchdogMutex_
    WatchdogOptions watchdogOpts_; ///< guarded by watchdogMutex_
    std::thread watchdogThread_;
};

/**
 * Heartbeat contract (docs/parallelism.md): long-running task bodies
 * call heartbeat() at natural progress boundaries — campaign cells
 * beat at fault points and per integrator epoch. The first beat of an
 * attempt places the task under watchdog observation; if the watchdog
 * then sees no beat for task_timeout seconds it flags the task, and
 * the next heartbeat() throws TaskTimeoutError. Outside a pool task
 * (or with no pool board) heartbeat() is a no-op, so instrumented code
 * needs no caller-side guards.
 */
void heartbeat();

/**
 * Attach a human-readable label ("workload @ op") and the current
 * phase stack to this slot's heartbeat board; the watchdog includes
 * both in its stall diagnostic. No-op outside a pool task.
 */
void heartbeatAnnotate(const std::string &note);

} // namespace dfault::par

#endif // DFAULT_PAR_POOL_HH
