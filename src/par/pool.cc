#include "par/pool.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>
#include <unordered_map>

#include <pthread.h>

#include "common/logging.hh"
#include "fi/injector.hh"
#include "obs/events.hh"
#include "obs/json.hh"
#include "obs/span.hh"
#include "obs/stats.hh"
#include "obs/timer.hh"

namespace dfault::par {

/**
 * Per-slot stall-detection state shared between the slot's task frame
 * (writer) and the watchdog thread (reader). beatNs == 0 means "not
 * monitored": boards activate at a task's first heartbeat and
 * deactivate when the attempt ends, so tasks that never beat can be
 * warned about but never failed.
 */
struct HeartbeatBoard
{
    std::atomic<std::uint64_t> beatNs{0};
    std::atomic<std::uint64_t> attemptStartNs{0};
    std::atomic<std::uint64_t> index{0};
    std::atomic<int> attempt{0};
    /** Set by the watchdog; the next heartbeat() throws and clears. */
    std::atomic<bool> expired{false};
    std::mutex noteMutex;
    // Guarded by noteMutex.
    std::string note;      ///< heartbeatAnnotate() label ("cell @ op")
    std::string phasePath; ///< phase stack captured at annotate time
};

namespace {

thread_local int t_slot = -1;
thread_local HeartbeatBoard *t_board = nullptr;
/** runIndex nesting depth: only the outermost frame (depth 1) owns the
 *  slot's heartbeat board; nested batches must not clobber it. */
thread_local int t_taskDepth = 0;

std::mutex g_globalMutex;
std::unique_ptr<Pool> g_globalPool;

/**
 * fork() copies only the calling thread, so a child must never join or
 * signal the parent's workers: when it exits, destroying the inherited
 * global pool would block on threads that do not exist in it. The
 * child handler abandons that pool instead (kept reachable here, not
 * leaked), and a later global() in the child builds a fresh one.
 * Holding g_globalMutex across fork() keeps the child from inheriting
 * it locked by a thread it does not have.
 */
Pool *g_abandonedPool = nullptr;

const int g_forkHandlers = pthread_atfork(
    [] { g_globalMutex.lock(); }, [] { g_globalMutex.unlock(); },
    [] {
        if (g_globalPool)
            g_abandonedPool = g_globalPool.release();
        g_globalMutex.unlock();
    });

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

std::uint64_t
steadyNanos()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * How long an idle worker, or a submitter whose own share is done,
 * busy-waits before parking on a condition variable. A serve tick is
 * ~20 us of work, so a futex sleep/wake round trip per batch costs as
 * much as the batch; past this bound the thread parks and costs
 * nothing while the pool is idle.
 */
constexpr auto kSpinBeforePark = std::chrono::microseconds(50);

/** One spin-wait iteration: a pause hint to the core, where the
 *  architecture has one, else a yield. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
    asm volatile("yield" ::: "memory");
#else
    std::this_thread::yield();
#endif
}

/** Spin until ready() holds or kSpinBeforePark elapses; returns
 *  ready()'s last value. Reads the clock once per 64 polls. */
template <typename Ready>
bool
spinUntil(const Ready &ready)
{
    const auto deadline =
        std::chrono::steady_clock::now() + kSpinBeforePark;
    for (;;) {
        for (int k = 0; k < 64; ++k) {
            if (ready())
                return true;
            cpuRelax();
        }
        if (std::chrono::steady_clock::now() >= deadline)
            return ready();
    }
}

// The pool's par.* stats, each resolved from the registry on first use
// (so it appears exactly when a by-name lookup would have created it)
// and touched only through its atomics afterwards. Registry references
// stay valid for the registry's lifetime.

obs::Counter &
batchesStat()
{
    static obs::Counter &stat = obs::Registry::instance().counter(
        "par.batches", "parallelFor batches submitted");
    return stat;
}

obs::Counter &
tasksQueuedStat()
{
    static obs::Counter &stat = obs::Registry::instance().counter(
        "par.tasks_queued", "pool tasks queued");
    return stat;
}

obs::Counter &
tasksExecutedStat()
{
    static obs::Counter &stat = obs::Registry::instance().counter(
        "par.tasks_executed", "pool tasks executed");
    return stat;
}

obs::Histogram &
taskNsStat()
{
    static obs::Histogram &stat = obs::Registry::instance().histogram(
        "par.task_ns", "pool task wall-clock latency (nanoseconds)");
    return stat;
}

obs::Counter &
stealsStat()
{
    static obs::Counter &stat = obs::Registry::instance().counter(
        "par.steals", "tasks stolen from another slot");
    return stat;
}

obs::Counter &
taskRetriesStat()
{
    static obs::Counter &stat = obs::Registry::instance().counter(
        "par.task_retries", "task attempts retried after a failure");
    return stat;
}

/**
 * Add one batch to par.phase.<phase>.{task,wall}_seconds. The gauge
 * pair of each phase path is looked up, and its speedup formula
 * registered, the first time a batch publishes under that path; later
 * batches cost one map find under the cache's own mutex.
 */
void
publishPhaseStats(const std::string &phase, double task_seconds,
                  double wall_seconds)
{
    struct PhaseGauges
    {
        obs::Gauge *task;
        obs::Gauge *wall;
    };
    static std::mutex mutex;
    static std::unordered_map<std::string, PhaseGauges> cache;

    PhaseGauges gauges{};
    {
        std::lock_guard<std::mutex> lock(mutex);
        auto it = cache.find(phase);
        if (it == cache.end()) {
            auto &reg = obs::Registry::instance();
            const std::string base =
                "par.phase." + (phase.empty() ? std::string("main") : phase);
            obs::Gauge &task = reg.gauge(
                base + ".task_seconds", "summed task seconds inside " + base);
            obs::Gauge &wall =
                reg.gauge(base + ".wall_seconds",
                          "submitter wall seconds inside " + base);
            reg.formula(
                base + ".speedup",
                [&task, &wall] {
                    const double w = wall.value();
                    return w > 0.0 ? task.value() / w : 0.0;
                },
                "parallel speedup (task seconds / wall seconds)");
            it = cache.emplace(phase, PhaseGauges{&task, &wall}).first;
        }
        gauges = it->second;
    }
    gauges.task->add(task_seconds);
    gauges.wall->add(wall_seconds);
}

} // namespace

/** One submitted parallelFor: shared body plus completion tracking. */
struct Batch
{
    const std::function<void(std::size_t, int)> *body = nullptr;
    /** Submitter's phase path and span; every task runs inside a
     *  PhaseAdoption of it, so nested ScopedTimers land under the same
     *  stats paths as the serial execution and task spans parent to the
     *  submitter's across the dispatch boundary. */
    obs::PhaseContext context;
    int maxRetries = 0;
    std::atomic<std::size_t> remaining{0};
    std::atomic<std::uint64_t> taskNanos{0};
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<TaskFailure> failures; ///< guarded by mutex
};

namespace {

std::string
batchErrorMessage(const std::vector<TaskFailure> &failures)
{
    std::size_t n_failed = 0;
    std::size_t n_cancelled = 0;
    for (const TaskFailure &f : failures)
        (f.disposition == TaskDisposition::Cancelled ? n_cancelled
                                                     : n_failed)++;
    std::string msg =
        "parallel batch: " + std::to_string(n_failed) + " task(s) failed";
    if (n_cancelled > 0)
        msg += ", " + std::to_string(n_cancelled) + " cancelled";
    msg += ":";
    std::size_t shown = 0;
    for (const TaskFailure &f : failures) {
        if (shown++ == 8) {
            msg += " ...";
            break;
        }
        msg += " [" + std::to_string(f.index) +
               (f.disposition == TaskDisposition::Cancelled ? " cancelled]"
                                                            : "]") +
               " " + f.error + ";";
    }
    return msg;
}

/** RAII for the runIndex nesting depth (exceptions cannot happen, but
 *  early returns abound). */
struct DepthGuard
{
    DepthGuard() { ++t_taskDepth; }
    ~DepthGuard() { --t_taskDepth; }
};

/**
 * Execute one index with the batch's retry budget. Never throws: a
 * fully failed index is recorded in batch.failures instead, so one bad
 * task cannot take its chunk siblings down with it, and a cancelled
 * index is recorded with the Cancelled disposition (never retried).
 */
void
runIndex(Batch &batch, std::size_t i)
{
    auto &inj = fi::Injector::instance();
    // Only the outermost task frame owns the slot's heartbeat board.
    HeartbeatBoard *board = t_taskDepth == 0 ? t_board : nullptr;
    DepthGuard depth;
    const auto deactivate = [board] {
        if (board != nullptr)
            board->beatNs.store(0, std::memory_order_relaxed);
    };
    for (int attempt = 0;; ++attempt) {
        // One relaxed load on the fast path; once the run is
        // cancelled, not-yet-started indices and would-be retries
        // drain instantly with the Cancelled disposition.
        if (cancelled()) {
            std::lock_guard<std::mutex> lock(batch.mutex);
            batch.failures.push_back(
                {i, attempt,
                 "cancelled (" + cancelOrigin() + "): " + cancelReason(),
                 TaskDisposition::Cancelled});
            return;
        }
        if (board != nullptr) {
            board->index.store(i, std::memory_order_relaxed);
            board->attempt.store(attempt, std::memory_order_relaxed);
            board->attemptStartNs.store(steadyNanos(),
                                        std::memory_order_relaxed);
            board->expired.store(false, std::memory_order_relaxed);
            board->beatNs.store(0, std::memory_order_relaxed);
        }
        std::string error;
        try {
            if (inj.armed())
                inj.maybeThrow("task.throw",
                               static_cast<std::uint64_t>(i), attempt);
            (*batch.body)(i, attempt);
            deactivate();
            return;
        } catch (const CancelledError &e) {
            // The body observed a cancel mid-run: same disposition as a
            // never-started index, and never retried.
            deactivate();
            std::lock_guard<std::mutex> lock(batch.mutex);
            batch.failures.push_back(
                {i, attempt + 1, e.what(), TaskDisposition::Cancelled});
            return;
        } catch (const std::exception &e) {
            error = e.what();
        } catch (...) {
            error = "non-standard exception";
        }
        deactivate();
        if (attempt < batch.maxRetries) {
            taskRetriesStat().inc();
            continue;
        }
        std::lock_guard<std::mutex> lock(batch.mutex);
        batch.failures.push_back({i, attempt + 1, std::move(error),
                                  TaskDisposition::Failed});
        return;
    }
}

/**
 * Post-drain bookkeeping shared by the inline and pooled paths:
 * deterministic failure order, failure/cancellation stats, fail-fast
 * throw. Pure cancellation (no real failures) surfaces as
 * CancelledError so drivers can funnel every interrupt through one
 * catch; any real failure keeps the aggregated BatchError.
 */
std::vector<TaskFailure>
finishBatch(Batch &batch, const ResilienceOptions &opts)
{
    std::vector<TaskFailure> failures = std::move(batch.failures);
    if (failures.empty())
        return failures;
    std::sort(failures.begin(), failures.end(),
              [](const TaskFailure &a, const TaskFailure &b) {
                  return a.index < b.index;
              });
    std::size_t n_failed = 0;
    std::size_t n_cancelled = 0;
    for (const TaskFailure &f : failures)
        (f.disposition == TaskDisposition::Cancelled ? n_cancelled
                                                     : n_failed)++;
    auto &reg = obs::Registry::instance();
    if (n_failed > 0)
        reg.counter("par.task_failures",
                    "tasks quarantined after exhausting retries")
            .inc(n_failed);
    if (n_cancelled > 0)
        reg.counter("par.cancelled_tasks",
                    "tasks skipped or stopped by cancellation")
            .inc(n_cancelled);
    if (opts.failFast) {
        if (n_failed == 0) {
            throwIfCancelled();
            throw CancelledError("task cancelled", "task");
        }
        throw BatchError(std::move(failures));
    }
    return failures;
}

} // namespace

BatchError::BatchError(std::vector<TaskFailure> failures)
    : std::runtime_error(batchErrorMessage(failures)),
      failures_(std::move(failures))
{
}

int
defaultThreads()
{
    if (const char *env = std::getenv("DFAULT_THREADS")) {
        char *end = nullptr;
        const long v = std::strtol(env, &end, 10);
        if (end == env || *end != '\0' || v < 1 || v > 1024)
            DFAULT_FATAL("DFAULT_THREADS must be an integer in [1, 1024],"
                         " got '", env, "'");
        return static_cast<int>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

Pool::Pool(int threads) : threads_(threads)
{
    if (threads < 1 || threads > 1024)
        DFAULT_FATAL("pool size must be in [1, 1024], got ", threads);
    slots_.reserve(threads_);
    for (int s = 0; s < threads_; ++s)
        slots_.push_back(std::make_unique<Slot>());
    boards_.reserve(threads_);
    for (int s = 0; s < threads_; ++s)
        boards_.push_back(std::make_unique<HeartbeatBoard>());
    workers_.reserve(threads_ - 1);
    for (int s = 1; s < threads_; ++s)
        workers_.emplace_back([this, s] { workerLoop(s); });
}

Pool::~Pool()
{
    disableWatchdog();
    {
        std::lock_guard<std::mutex> lock(sleepMutex_);
        stop_.store(true, std::memory_order_relaxed);
    }
    sleepCv_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

Pool &
Pool::global()
{
    std::lock_guard<std::mutex> lock(g_globalMutex);
    if (!g_globalPool)
        g_globalPool = std::make_unique<Pool>(defaultThreads());
    return *g_globalPool;
}

void
Pool::setGlobalThreads(int threads)
{
    std::lock_guard<std::mutex> lock(g_globalMutex);
    g_globalPool.reset(); // joins any previous workers
    g_globalPool = std::make_unique<Pool>(threads);
}

int
Pool::currentSlot()
{
    return t_slot;
}

void
Pool::parallelFor(std::size_t n,
                  const std::function<void(std::size_t)> &body)
{
    const std::function<void(std::size_t, int)> wrapped =
        [&body](std::size_t i, int) { body(i); };
    parallelForResilient(n, wrapped, ResilienceOptions{});
}

std::vector<TaskFailure>
Pool::parallelForResilient(std::size_t n,
                           const std::function<void(std::size_t, int)> &body,
                           const ResilienceOptions &opts)
{
    if (n == 0)
        return {};

    Batch batch;
    batch.body = &body;
    batch.maxRetries = opts.maxRetries;

    // Nested calls (already on a pool slot) run inline and publish
    // nothing: they are part of the enclosing task, and this makes
    // recursive parallelism (forest training inside a fold) safe.
    // runIndex never throws, so the loop always drains the full range.
    if (t_slot >= 0) {
        for (std::size_t i = 0; i < n; ++i)
            runIndex(batch, i);
        return finishBatch(batch, opts);
    }

    batch.context = obs::ScopedTimer::context();
    const std::string &phase = batch.context.path;

    // A 1-thread pool runs the loop inline on the caller as slot 0:
    // this is the serial reference execution.
    if (threads_ == 1) {
        t_slot = 0;
        t_board = boards_[0].get();
        const auto start = std::chrono::steady_clock::now();
        {
            // The whole inline range counts as one executed task (it
            // increments par.tasks_executed once below), so it also
            // records exactly one task span.
            const obs::PhaseAdoption frame(batch.context);
            for (std::size_t i = 0; i < n; ++i)
                runIndex(batch, i);
        }
        t_slot = -1;
        t_board = nullptr;
        const double wall = secondsSince(start);
        batchesStat().inc();
        tasksExecutedStat().inc();
        taskNsStat().record(wall * 1e9);
        publishPhaseStats(phase, wall, wall);
        return finishBatch(batch, opts);
    }

    std::lock_guard<std::mutex> submit(submitMutex_);
    t_slot = 0;
    t_board = boards_[0].get();
    const auto start = std::chrono::steady_clock::now();
    auto &tracer = obs::SpanTracer::instance();

    // Chunk the range: enough tasks for stealing to balance uneven
    // costs, few enough that queue traffic stays negligible.
    const std::size_t max_chunks =
        static_cast<std::size_t>(threads_) * 4;
    const std::size_t chunks = std::min(n, max_chunks);
    const std::size_t chunk = (n + chunks - 1) / chunks;

    std::size_t count = 0;
    for (std::size_t begin = 0; begin < n; begin += chunk) {
        Task task;
        task.begin = begin;
        task.end = std::min(n, begin + chunk);
        task.batch = &batch;
        batch.remaining.fetch_add(1, std::memory_order_relaxed);
        if (tracer.enabled()) {
            // Flow arrow origin: this task leaving the submitter.
            task.flowId = tracer.newId();
            tracer.flowEvent(obs::TraceKind::FlowBegin, task.flowId,
                             phase);
        }
        Slot &slot = *slots_[count % static_cast<std::size_t>(threads_)];
        {
            std::lock_guard<std::mutex> lock(slot.mutex);
            pending_.fetch_add(1, std::memory_order_relaxed);
            slot.queue.push_back(task);
        }
        ++count;
    }
    // A worker that found no work checks pending_ under sleepMutex_
    // before it parks; passing through that mutex here means it either
    // sees this batch's tasks or is already waiting for the notify.
    {
        std::lock_guard<std::mutex> lock(sleepMutex_);
    }
    sleepCv_.notify_all();
    batchesStat().inc();
    tasksQueuedStat().inc(static_cast<std::uint64_t>(count));

    // Help drain: run our own share, then steal stragglers. Once the
    // queues look empty, spin briefly for in-flight tasks, then wait
    // under batch.mutex. Completion is only ever concluded under that
    // mutex, even after the spin saw remaining == 0: the last worker
    // decrements and notifies while holding it (see runTask), so the
    // stack-allocated Batch cannot be torn down while a worker is
    // still signalling it.
    while (tryRun(0)) {
    }
    spinUntil([&] {
        return batch.remaining.load(std::memory_order_acquire) == 0;
    });
    {
        std::unique_lock<std::mutex> lock(batch.mutex);
        batch.cv.wait(lock, [&] {
            return batch.remaining.load(std::memory_order_acquire) == 0;
        });
    }
    t_slot = -1;
    t_board = nullptr;

    const double wall = secondsSince(start);
    publishPhaseStats(
        phase,
        static_cast<double>(
            batch.taskNanos.load(std::memory_order_relaxed)) *
            1e-9,
        wall);

    return finishBatch(batch, opts);
}

void
Pool::workerLoop(int slot)
{
    t_slot = slot;
    t_board = boards_[static_cast<std::size_t>(slot)].get();
    for (;;) {
        if (tryRun(slot))
            continue;
        if (spinUntil([&] {
                return pending_.load(std::memory_order_relaxed) > 0;
            }))
            continue;
        std::unique_lock<std::mutex> lock(sleepMutex_);
        sleepCv_.wait(lock, [&] {
            return stop_.load(std::memory_order_relaxed) ||
                   pending_.load(std::memory_order_relaxed) > 0;
        });
        if (stop_.load(std::memory_order_relaxed))
            return;
    }
}

bool
Pool::tryRun(int slot)
{
    Task task;
    if (popOwn(slot, task) || stealAny(slot, task)) {
        runTask(task);
        return true;
    }
    return false;
}

bool
Pool::popOwn(int slot, Task &task)
{
    Slot &own = *slots_[static_cast<std::size_t>(slot)];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (own.queue.empty())
        return false;
    task = own.queue.back(); // LIFO: cache-warm end of the range
    own.queue.pop_back();
    pending_.fetch_sub(1, std::memory_order_relaxed);
    return true;
}

bool
Pool::stealAny(int thief, Task &task)
{
    for (int k = 1; k < threads_; ++k) {
        const int victim = (thief + k) % threads_;
        Slot &other = *slots_[static_cast<std::size_t>(victim)];
        std::lock_guard<std::mutex> lock(other.mutex);
        if (other.queue.empty())
            continue;
        task = other.queue.front(); // FIFO: take the coldest chunk
        other.queue.pop_front();
        pending_.fetch_sub(1, std::memory_order_relaxed);
        stealsStat().inc();
        return true;
    }
    return false;
}

void
Pool::runTask(const Task &task)
{
    Batch &batch = *task.batch;
    const auto start = std::chrono::steady_clock::now();

    {
        // Whichever thread runs it, the task continues the submitter's
        // phase: nested timers get the submitter's dotted paths and the
        // task span hangs off the submitter's span.
        const obs::PhaseAdoption frame(batch.context);
        if (task.flowId != 0) {
            // Flow arrow target, timestamped inside the task span so
            // Perfetto binds it to the enclosing slice.
            obs::SpanTracer::instance().flowEvent(
                obs::TraceKind::FlowEnd, task.flowId,
                batch.context.path);
        }
        // runIndex never throws: each index retries, then quarantines
        // into batch.failures, so the chunk always runs to completion.
        for (std::size_t i = task.begin; i < task.end; ++i)
            runIndex(batch, i);
    }

    const double task_ns = secondsSince(start) * 1e9;
    batch.taskNanos.fetch_add(static_cast<std::uint64_t>(task_ns),
                              std::memory_order_relaxed);
    tasksExecutedStat().inc();
    taskNsStat().record(task_ns);

    // Decrement and notify under batch.mutex. The submitter only
    // concludes the batch is done while holding the same mutex, so by
    // the time it can destroy the Batch the last worker has finished
    // touching the condition variable (no use-after-free on the cv).
    {
        std::lock_guard<std::mutex> lock(batch.mutex);
        if (batch.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
            batch.cv.notify_all();
    }
}

void
Pool::enableWatchdog(const WatchdogOptions &opts)
{
    disableWatchdog();
    if (opts.taskTimeoutSeconds < 0.0 || opts.deadlineSeconds < 0.0)
        DFAULT_FATAL("watchdog durations must be >= 0");
    if (opts.taskTimeoutSeconds == 0.0 && opts.deadlineSeconds == 0.0)
        return; // nothing to watch
    {
        std::lock_guard<std::mutex> lock(watchdogMutex_);
        watchdogStop_ = false;
        watchdogOpts_ = opts;
    }
    watchdogThread_ = std::thread([this] { watchdogLoop(); });
}

void
Pool::disableWatchdog()
{
    {
        std::lock_guard<std::mutex> lock(watchdogMutex_);
        watchdogStop_ = true;
    }
    watchdogCv_.notify_all();
    if (watchdogThread_.joinable())
        watchdogThread_.join();
}

void
Pool::watchdogLoop()
{
    WatchdogOptions opts;
    {
        std::lock_guard<std::mutex> lock(watchdogMutex_);
        opts = watchdogOpts_;
    }
    double base = opts.taskTimeoutSeconds;
    if (opts.deadlineSeconds > 0.0)
        base = base > 0.0 ? std::min(base, opts.deadlineSeconds)
                          : opts.deadlineSeconds;
    const double poll = std::clamp(base / 4.0, 0.01, 1.0);
    const std::uint64_t started = steadyNanos();
    const auto timeout_ns = static_cast<std::uint64_t>(
        opts.taskTimeoutSeconds * 1e9);
    const auto deadline_ns =
        static_cast<std::uint64_t>(opts.deadlineSeconds * 1e9);
    bool deadline_fired = false;

    auto &reg = obs::Registry::instance();
    auto &sink = obs::EventSink::instance();
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(watchdogMutex_);
            watchdogCv_.wait_for(
                lock, std::chrono::duration<double>(poll),
                [&] { return watchdogStop_; });
            if (watchdogStop_)
                return;
        }
        const std::uint64_t now = steadyNanos();

        if (deadline_ns > 0 && !deadline_fired && now - started >= deadline_ns) {
            deadline_fired = true;
            cancel("run deadline of " +
                       std::to_string(opts.deadlineSeconds) + " s exceeded",
                   "deadline");
            reg.counter("par.deadline_cancels",
                        "runs cancelled by the watchdog deadline")
                .inc();
            DFAULT_WARN("watchdog: run deadline of ",
                        opts.deadlineSeconds,
                        " s exceeded - cancelling, draining in-flight"
                        " work");
            if (sink.enabled()) {
                obs::JsonWriter fields;
                fields.field("deadline_seconds", opts.deadlineSeconds);
                sink.emit("watchdog_deadline", fields);
            }
        }

        if (timeout_ns == 0)
            continue;
        for (int s = 0; s < threads_; ++s) {
            HeartbeatBoard &board =
                *boards_[static_cast<std::size_t>(s)];
            const std::uint64_t beat =
                board.beatNs.load(std::memory_order_acquire);
            if (beat == 0 || now - beat < timeout_ns)
                continue;
            if (board.expired.exchange(true, std::memory_order_acq_rel))
                continue; // already flagged, one diagnostic per stall
            // Stack-of-spans diagnostic: everything the stalled worker
            // last told us about itself. The task itself cannot be
            // interrupted here; its next heartbeat() raises
            // TaskTimeoutError into the retry/quarantine machinery.
            std::string note;
            std::string phase;
            {
                std::lock_guard<std::mutex> lock(board.noteMutex);
                note = board.note;
                phase = board.phasePath;
            }
            const auto idx = board.index.load(std::memory_order_relaxed);
            const int att =
                board.attempt.load(std::memory_order_relaxed);
            const double stalled = static_cast<double>(now - beat) * 1e-9;
            const double elapsed =
                static_cast<double>(
                    now - board.attemptStartNs.load(
                              std::memory_order_relaxed)) *
                1e-9;
            reg.counter("par.watchdog_stalls",
                        "tasks flagged as stalled by the watchdog")
                .inc();
            DFAULT_WARN("watchdog: slot ", s, " stalled in task ", idx,
                        " attempt ", att + 1, ": no heartbeat for ",
                        stalled, " s (task_timeout ",
                        opts.taskTimeoutSeconds, " s); phase [",
                        phase.empty() ? "<none>" : phase, "], cell [",
                        note.empty() ? "<unlabelled>" : note,
                        "], attempt elapsed ", elapsed, " s");
            if (sink.enabled()) {
                obs::JsonWriter fields;
                fields.field("slot", s);
                fields.field("index",
                             static_cast<std::uint64_t>(idx));
                fields.field("attempt", att + 1);
                fields.field("phase", phase);
                fields.field("cell", note);
                fields.field("stalled_seconds", stalled);
                fields.field("elapsed_seconds", elapsed);
                fields.field("task_timeout_seconds",
                             opts.taskTimeoutSeconds);
                sink.emit("watchdog_stall", fields);
            }
        }
    }
}

void
heartbeat()
{
    HeartbeatBoard *board = t_board;
    if (board == nullptr || t_taskDepth != 1)
        return;
    if (board->expired.load(std::memory_order_acquire)) {
        board->expired.store(false, std::memory_order_relaxed);
        board->beatNs.store(0, std::memory_order_relaxed);
        std::string note;
        {
            std::lock_guard<std::mutex> lock(board->noteMutex);
            note = board->note;
        }
        // No timing figures in the message: it lands in quarantine
        // reports that must replay identically across runs.
        throw TaskTimeoutError(
            "watchdog: task exceeded task_timeout" +
            (note.empty() ? std::string() : " (" + note + ")"));
    }
    board->beatNs.store(steadyNanos(), std::memory_order_release);
}

void
heartbeatAnnotate(const std::string &note)
{
    HeartbeatBoard *board = t_board;
    if (board == nullptr || t_taskDepth != 1)
        return;
    const std::string phase = obs::ScopedTimer::currentPath();
    std::lock_guard<std::mutex> lock(board->noteMutex);
    board->note = note;
    board->phasePath = phase;
}

} // namespace dfault::par
