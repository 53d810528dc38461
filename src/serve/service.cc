#include "serve/service.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/logging.hh"
#include "fi/injector.hh"
#include "obs/deferral.hh"
#include "obs/events.hh"
#include "par/pool.hh"
#include "serve/journal.hh"

namespace dfault::serve {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/** Range-check the tuning once, before the const member is stored. */
Params
validated(Params p)
{
    if (p.queueCapacity < 1)
        DFAULT_FATAL("serve: queueCapacity must be >= 1");
    if (p.budgetPerTick < 1)
        DFAULT_FATAL("serve: budgetPerTick must be >= 1");
    if (p.shards < 1)
        DFAULT_FATAL("serve: shards must be >= 1");
    if (p.maxRetries < 0)
        DFAULT_FATAL("serve: maxRetries must be >= 0");
    const BreakerParams &b = p.breaker;
    if (b.consecutiveFailures < 1 || b.errorRateWindow < 1 ||
        b.cooldownTicks < 1 || b.halfOpenProbes < 1)
        DFAULT_FATAL("serve: breaker thresholds must be >= 1");
    if (!(b.errorRateThreshold > 0.0) || !(b.errorRateThreshold <= 1.0))
        DFAULT_FATAL("serve: breaker errorRateThreshold must be in (0,1]");
    return p;
}

} // namespace

const char *
priorityName(Priority p)
{
    switch (p) {
    case Priority::Critical:
        return "critical";
    case Priority::Health:
        return "health";
    case Priority::Bulk:
        return "bulk";
    }
    return "?";
}

const char *
dispositionName(Disposition d)
{
    switch (d) {
    case Disposition::Served:
        return "served";
    case Disposition::Degraded:
        return "degraded";
    case Disposition::Shed:
        return "shed";
    }
    return "?";
}

const char *
breakerStateName(BreakerState s)
{
    switch (s) {
    case BreakerState::Closed:
        return "closed";
    case BreakerState::Open:
        return "open";
    case BreakerState::HalfOpen:
        return "half_open";
    }
    return "?";
}

PredictionService::PredictionService(const ml::Regressor &primary,
                                     const Params &params,
                                     const ml::Regressor *fallback)
    : primary_(primary), fallback_(fallback), params_(validated(params)),
      registry_(params.registry != nullptr ? *params.registry
                                           : obs::Registry::instance()),
      queues_(kPriorityCount), breakers_(params_.shards),
      // Counter names omit _total (the OpenMetrics exporter appends
      // it): these export as serve_submitted_total, serve_shed_total...
      submitted_(addCounter("serve.submitted",
                            "prediction requests submitted")),
      served_(addCounter("serve.served",
                         "requests answered by the primary model")),
      degraded_(addCounter(
          "serve.degraded",
          "requests answered from the degraded path (LKG / fallback)")),
      shed_(addCounter("serve.shed",
                       "requests shed (admission or eviction)")),
      breakerOpened_(addCounter("serve.breaker.opened",
                                "circuit breaker open transitions")),
      breakerHalfOpened_(addCounter("serve.breaker.half_open",
                                    "circuit breaker half-open transitions")),
      breakerClosed_(addCounter(
          "serve.breaker.closed",
          "circuit breaker recoveries (half-open -> closed)")),
      ticksTotal_(addCounter("serve.ticks", "service ticks run")),
      queueDepthGauge_(registry_.gauge(
          "serve.live.queue_depth",
          "queued requests right now (live, digest-excluded)"))
{
    for (int c = 0; c < kPriorityCount; ++c) {
        const std::string name(priorityName(static_cast<Priority>(c)));
        shedByPriority_[c] = &addCounter(
            "serve.shed." + name,
            "requests shed in the " + name + " priority class");
        latency_[c] = &registry_.histogram(
            "serve.latency_ns." + name,
            "primary predict latency for " + name +
                " requests, nanoseconds");
    }
    breakerGauges_.reserve(breakers_.size());
    for (std::size_t s = 0; s < breakers_.size(); ++s)
        breakerGauges_.push_back(&registry_.gauge(
            "serve.live.breaker_state.shard" + std::to_string(s),
            "breaker state: 0 closed, 1 open, 2 half-open (live)"));
    if (!params_.journalDir.empty())
        restoreFromJournal();
}

PredictionService::~PredictionService() = default;

obs::Counter &
PredictionService::addCounter(const std::string &name,
                              const std::string &description)
{
    obs::Counter &counter = registry_.counter(name, description);
    counters_.push_back({name, description, &counter});
    return counter;
}

std::vector<std::uint64_t>
PredictionService::counterValues() const
{
    std::vector<std::uint64_t> values;
    values.reserve(counters_.size());
    for (const NamedCounter &c : counters_)
        values.push_back(c.counter->value());
    return values;
}

std::vector<obs::StatOp>
PredictionService::counterOpsSince(
    const std::vector<std::uint64_t> &mark) const
{
    std::vector<obs::StatOp> ops;
    for (std::size_t i = 0; i < counters_.size(); ++i) {
        const std::uint64_t moved = counters_[i].counter->value() - mark[i];
        if (moved != 0)
            ops.push_back({obs::StatOp::Kind::CounterInc, counters_[i].name,
                           counters_[i].description,
                           static_cast<double>(moved)});
    }
    return ops;
}

void
PredictionService::restoreFromJournal()
{
    // Journaled counter ops are differences of counter values, so a
    // registry that already holds serve.* counts (an earlier service's)
    // neither leaks into the records nor is replayed twice.
    journal_ = std::make_unique<JournalState>();
    journal_->base = counterValues();
    journal_->durable = journal_->base;
    journal_->wal.open(params_.journalDir, journalConfigDigest(params_),
                       &registry_);
    const WriteAheadJournal::Restored restored = journal_->wal.load();
    if (!restored.any)
        return;

    const auto applyRequests =
        [this](const std::vector<JournalRequest> &requests) {
            for (const JournalRequest &jr : requests) {
                Pending p;
                p.id = jr.id;
                p.key = jr.key;
                p.priority = static_cast<Priority>(jr.priority);
                p.shard = std::clamp(jr.shard, 0, params_.shards - 1);
                p.enqueueTick = jr.enqueueTick;
                p.features = jr.features;
                queues_[jr.priority].push_back(std::move(p));
            }
        };
    const auto applyBreakers =
        [this](const std::vector<JournalBreaker> &journaled) {
            if (journaled.size() != breakers_.size())
                DFAULT_WARN("journal: record carries ", journaled.size(),
                            " breaker shard(s), service has ",
                            breakers_.size(), "; applying the overlap");
            const std::size_t n =
                std::min(journaled.size(), breakers_.size());
            for (std::size_t s = 0; s < n; ++s) {
                const JournalBreaker &jb = journaled[s];
                Breaker &b = breakers_[s];
                b.state = static_cast<BreakerState>(jb.state);
                b.consecutive = jb.consecutive;
                b.window.clear();
                for (char c : jb.window)
                    b.window.push_back(c == '1' ? 1 : 0);
                b.windowFailures = jb.windowFailures;
                b.openedTick = jb.openedTick;
                b.probeSuccesses = jb.probeSuccesses;
            }
        };

    if (restored.hasSnapshot) {
        const JournalSnapshot &snap = restored.snapshot;
        tick_ = snap.tick;
        nextId_ = snap.nextId;
        applyRequests(snap.queued);
        responses_ = snap.responses;
        applyBreakers(snap.breakers);
        for (const auto &[key, value] : snap.lastKnownGood)
            lastKnownGood_[key] = value;
        obs::applyStatOps(snap.statOps, &registry_);
    }
    for (const JournalSegment &seg : restored.segments) {
        tick_ = seg.tick;
        nextId_ = seg.nextId;
        applyRequests(seg.admitted);
        for (const Response &r : seg.responses) {
            // A resolved request leaves the queue; an admission shed
            // was never in it (erase-by-id finds nothing, harmlessly).
            for (auto &q : queues_)
                for (auto qit = q.begin(); qit != q.end(); ++qit)
                    if (qit->id == r.id) {
                        q.erase(qit);
                        break;
                    }
            if (r.disposition == Disposition::Served)
                lastKnownGood_[r.key] = r.prediction;
            responses_.push_back(r);
        }
        applyBreakers(seg.breakers);
        obs::applyStatOps(seg.statOps, &registry_);
    }

    journal_->durable = counterValues();
    journal_->flushedResponses = responses_.size();
    resumedFromTick_ = static_cast<std::int64_t>(restored.tick);
    for (std::size_t s = 0; s < breakers_.size(); ++s)
        breakerGauges_[s]->set(static_cast<double>(breakers_[s].state));
    updateLiveGaugesLocked();
    DFAULT_INFORM("serve: restored from journal '", params_.journalDir,
                "' to tick ", restored.tick, " (",
                responses_.size(), " response(s), ",
                queueDepthLocked(), " still queued)");
}

void
PredictionService::journalCommitLocked()
{
    if (journal_ == nullptr)
        return;
    const bool snapshotTick =
        params_.snapshotEveryTicks > 0 &&
        tick_ % params_.snapshotEveryTicks == 0;
    const auto captureBreakers = [this]() {
        std::vector<JournalBreaker> out;
        out.reserve(breakers_.size());
        for (const Breaker &b : breakers_) {
            JournalBreaker jb;
            jb.state = static_cast<int>(b.state);
            jb.consecutive = b.consecutive;
            jb.window.reserve(b.window.size());
            for (char c : b.window)
                jb.window.push_back(c != 0 ? '1' : '0');
            jb.windowFailures = b.windowFailures;
            jb.openedTick = b.openedTick;
            jb.probeSuccesses = b.probeSuccesses;
            out.push_back(std::move(jb));
        }
        return out;
    };

    bool ok;
    if (snapshotTick) {
        JournalSnapshot snap;
        snap.tick = tick_;
        snap.nextId = nextId_;
        for (const auto &q : queues_)
            for (const Pending &p : q) {
                JournalRequest jr;
                jr.id = p.id;
                jr.key = p.key;
                jr.priority = static_cast<int>(p.priority);
                jr.shard = p.shard;
                jr.enqueueTick = p.enqueueTick;
                jr.features = p.features;
                snap.queued.push_back(std::move(jr));
            }
        snap.responses = responses_;
        snap.breakers = captureBreakers();
        snap.lastKnownGood.assign(lastKnownGood_.begin(),
                                  lastKnownGood_.end());
        std::sort(snap.lastKnownGood.begin(), snap.lastKnownGood.end());
        snap.statOps = counterOpsSince(journal_->base);
        ok = journal_->wal.writeSnapshot(snap);
    } else {
        JournalSegment seg;
        seg.tick = tick_;
        seg.nextId = nextId_;
        seg.admitted = journal_->admitted;
        seg.responses.assign(responses_.begin() +
                                 static_cast<std::ptrdiff_t>(
                                     journal_->flushedResponses),
                             responses_.end());
        seg.breakers = captureBreakers();
        seg.statOps = counterOpsSince(journal_->durable);
        ok = journal_->wal.writeSegment(seg);
    }
    if (ok) {
        journal_->admitted.clear();
        journal_->durable = counterValues();
        journal_->flushedResponses = responses_.size();
    }
    // On failure the delta stays accumulated: it folds into the next
    // record, and a crash before that resumes from the previous
    // durable tick and re-executes this one deterministically.
}

par::CancelToken
PredictionService::effectiveToken() const
{
    return params_.token.valid() ? params_.token : par::rootCancelToken();
}

std::size_t
PredictionService::queueDepthLocked() const
{
    std::size_t depth = 0;
    for (const auto &q : queues_)
        depth += q.size();
    return depth;
}

void
PredictionService::updateLiveGaugesLocked()
{
    queueDepthGauge_.set(static_cast<double>(queueDepthLocked()));
}

void
PredictionService::shedLocked(Pending &&req, const std::string &reason)
{
    ++shed_;
    ++*shedByPriority_[static_cast<int>(req.priority)];
    Response r;
    r.id = req.id;
    r.key = req.key;
    r.priority = req.priority;
    r.shard = req.shard;
    r.disposition = Disposition::Shed;
    r.prediction = kNaN;
    r.reason = reason;
    responses_.push_back(std::move(r));
}

void
PredictionService::degradeLocked(Pending &&req, const std::string &reason)
{
    double prediction = kNaN;
    std::string source;
    const auto lkg = lastKnownGood_.find(req.key);
    if (lkg != lastKnownGood_.end()) {
        prediction = lkg->second;
        source = "last-known-good";
    } else if (fallback_ != nullptr) {
        prediction = fallback_->predict(req.features);
        source = "fallback model";
    } else {
        // No cheap path exists for this key: the request still gets a
        // disposition, just an honest one.
        shedLocked(std::move(req), reason + "; no degraded path");
        return;
    }
    ++degraded_;
    Response r;
    r.id = req.id;
    r.key = req.key;
    r.priority = req.priority;
    r.shard = req.shard;
    r.disposition = Disposition::Degraded;
    r.degraded = true;
    r.prediction = prediction;
    r.reason = reason + " (" + source + ")";
    responses_.push_back(std::move(r));
}

void
PredictionService::serveLocked(Pending &&req, double prediction)
{
    ++served_;
    lastKnownGood_[req.key] = prediction;
    Response r;
    r.id = req.id;
    r.key = req.key;
    r.priority = req.priority;
    r.shard = req.shard;
    r.disposition = Disposition::Served;
    r.prediction = prediction;
    responses_.push_back(std::move(r));
}

void
PredictionService::transitionLocked(int shard, BreakerState to)
{
    Breaker &b = breakers_[shard];
    const BreakerState from = b.state;
    if (from == to)
        return;
    b.state = to;
    switch (to) {
    case BreakerState::Open:
        b.openedTick = tick_;
        ++breakerOpened_;
        break;
    case BreakerState::HalfOpen:
        b.probeSuccesses = 0;
        ++breakerHalfOpened_;
        break;
    case BreakerState::Closed:
        b.consecutive = 0;
        b.window.clear();
        b.windowFailures = 0;
        ++breakerClosed_;
        break;
    }
    breakerGauges_[shard]->set(static_cast<double>(to));
    auto &sink = obs::EventSink::instance();
    if (sink.enabled()) {
        obs::JsonWriter w;
        w.field("tick", tick_);
        w.field("shard", shard);
        w.field("from", breakerStateName(from));
        w.field("to", breakerStateName(to));
        sink.emit("serve_breaker", w);
    }
}

void
PredictionService::recordOutcomeLocked(Breaker &b, bool failure)
{
    b.window.push_back(failure ? 1 : 0);
    if (failure)
        ++b.windowFailures;
    while (static_cast<int>(b.window.size()) >
           params_.breaker.errorRateWindow) {
        if (b.window.front() != 0)
            --b.windowFailures;
        b.window.pop_front();
    }
}

void
PredictionService::onPrimarySuccessLocked(int shard)
{
    Breaker &b = breakers_[shard];
    switch (b.state) {
    case BreakerState::Closed:
        b.consecutive = 0;
        recordOutcomeLocked(b, false);
        break;
    case BreakerState::HalfOpen:
        if (++b.probeSuccesses >= params_.breaker.halfOpenProbes)
            transitionLocked(shard, BreakerState::Closed);
        break;
    case BreakerState::Open:
        // The breaker opened earlier in this same commit pass; the
        // request had already executed. Nothing to record.
        break;
    }
}

void
PredictionService::onPrimaryFailureLocked(int shard)
{
    Breaker &b = breakers_[shard];
    switch (b.state) {
    case BreakerState::Closed: {
        ++b.consecutive;
        recordOutcomeLocked(b, true);
        const bool rateTrip =
            static_cast<int>(b.window.size()) >=
                params_.breaker.errorRateWindow &&
            static_cast<double>(b.windowFailures) /
                    static_cast<double>(b.window.size()) >=
                params_.breaker.errorRateThreshold;
        if (b.consecutive >= params_.breaker.consecutiveFailures ||
            rateTrip)
            transitionLocked(shard, BreakerState::Open);
        break;
    }
    case BreakerState::HalfOpen:
        // A failed probe reopens immediately and restarts the cooldown.
        transitionLocked(shard, BreakerState::Open);
        break;
    case BreakerState::Open:
        break;
    }
}

std::uint64_t
PredictionService::submit(Request request)
{
    auto &inj = fi::Injector::instance();
    std::lock_guard<std::mutex> lock(mutex_);
    Pending p;
    p.id = nextId_++;
    p.key = request.key;
    p.priority = request.priority;
    p.shard = std::clamp(request.shard, 0, params_.shards - 1);
    p.enqueueTick = tick_;
    p.features = std::move(request.features);
    const std::uint64_t id = p.id;
    ++submitted_;

    const par::CancelToken token = effectiveToken();
    if (token.cancelled()) {
        const std::string reason = token.reason();
        shedLocked(std::move(p), reason.empty()
                                     ? std::string("cancelled")
                                     : "cancelled: " + reason);
        updateLiveGaugesLocked();
        return id;
    }
    if (inj.armed() && inj.shouldFire("serve.reject", id)) {
        shedLocked(std::move(p),
                   "injected admission reject (serve.reject)");
        updateLiveGaugesLocked();
        return id;
    }
    if (queueDepthLocked() >= params_.queueCapacity) {
        // Priority-aware shedding: evict the *newest* request of the
        // least important class that is strictly less important than
        // the arrival. Bulk sheds first; an arrival with nothing less
        // important behind it sheds itself.
        int victim = -1;
        for (int c = kPriorityCount - 1;
             c > static_cast<int>(p.priority); --c)
            if (!queues_[c].empty()) {
                victim = c;
                break;
            }
        if (victim < 0) {
            shedLocked(std::move(p), "queue full");
            updateLiveGaugesLocked();
            return id;
        }
        Pending evicted = std::move(queues_[victim].back());
        queues_[victim].pop_back();
        shedLocked(std::move(evicted),
                   "queue full: evicted by higher-priority arrival");
    }
    if (journal_ != nullptr) {
        JournalRequest jr;
        jr.id = p.id;
        jr.key = p.key;
        jr.priority = static_cast<int>(p.priority);
        jr.shard = p.shard;
        jr.enqueueTick = p.enqueueTick;
        jr.features = p.features;
        journal_->admitted.push_back(std::move(jr));
    }
    queues_[static_cast<int>(p.priority)].push_back(std::move(p));
    updateLiveGaugesLocked();
    return id;
}

std::size_t
PredictionService::tick()
{
    const par::CancelToken token = effectiveToken();
    std::size_t resolved = 0;
    std::vector<Pending> batch;

    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++tick_;
        ++ticksTotal_;

        if (token.cancelled()) {
            // A cancelled service still honors the disposition
            // contract: every queued request is shed with the cancel
            // reason, never silently dropped.
            const std::string reason = token.reason();
            const std::string text = reason.empty()
                                         ? std::string("cancelled")
                                         : "cancelled: " + reason;
            for (auto &q : queues_)
                while (!q.empty()) {
                    shedLocked(std::move(q.front()), text);
                    q.pop_front();
                    ++resolved;
                }
            updateLiveGaugesLocked();
            journalCommitLocked();
            return resolved;
        }

        // Open breakers whose tick-based cooldown elapsed start
        // probing. Tick counts, not wall clock: replays transition on
        // exactly the same tick.
        for (std::size_t s = 0; s < breakers_.size(); ++s) {
            Breaker &b = breakers_[s];
            if (b.state == BreakerState::Open &&
                tick_ >= b.openedTick +
                             static_cast<std::uint64_t>(
                                 params_.breaker.cooldownTicks))
                transitionLocked(static_cast<int>(s),
                                 BreakerState::HalfOpen);
        }

        // Batch selection: critical first, bulk last, FIFO within a
        // class. Requests behind an open breaker or past their
        // deadline resolve on the cheap path right here, consuming no
        // budget — that is the entire point of degraded mode.
        std::size_t budget = params_.budgetPerTick;
        std::vector<int> probes(breakers_.size(), 0);
        for (int c = 0; c < kPriorityCount; ++c) {
            std::deque<Pending> keep;
            auto &q = queues_[c];
            while (!q.empty()) {
                Pending p = std::move(q.front());
                q.pop_front();
                const Breaker &b = breakers_[p.shard];
                const bool pastDeadline =
                    params_.degradeAfterTicks > 0 &&
                    tick_ - p.enqueueTick >= params_.degradeAfterTicks;
                if (b.state == BreakerState::Open) {
                    degradeLocked(std::move(p), "breaker open");
                    ++resolved;
                } else if (pastDeadline) {
                    degradeLocked(std::move(p), "deadline pressure");
                    ++resolved;
                } else if (b.state == BreakerState::HalfOpen) {
                    if (budget > 0 &&
                        probes[p.shard] <
                            params_.breaker.halfOpenProbes) {
                        ++probes[p.shard];
                        --budget;
                        batch.push_back(std::move(p));
                    } else {
                        keep.push_back(std::move(p));
                    }
                } else if (budget > 0) {
                    --budget;
                    batch.push_back(std::move(p));
                } else {
                    keep.push_back(std::move(p));
                }
            }
            q = std::move(keep);
        }
        updateLiveGaugesLocked();
    }

    // Execute the batch on the pool, outside the service lock, with
    // the existing retry/cancellation/heartbeat machinery. Faults are
    // keyed by the submission id, so the schedule is independent of
    // arrival order and thread count.
    struct SlotResult
    {
        double prediction = 0.0;
        bool ok = false;
        bool cancelled = false;
        std::string error;
    };
    std::vector<SlotResult> results(batch.size());
    if (!batch.empty()) {
        auto &inj = fi::Injector::instance();
        par::ResilienceOptions opts;
        opts.maxRetries = params_.maxRetries;
        opts.failFast = false;
        opts.token = token;
        const auto failures = par::Pool::global().parallelForResilient(
            batch.size(),
            [&](std::size_t i, int attempt) {
                par::heartbeat();
                const Pending &p = batch[i];
                if (inj.armed()) {
                    inj.maybeStall("serve.slow", p.id, attempt);
                    inj.maybeThrow("serve.error", p.id, attempt);
                }
                const auto t0 = std::chrono::steady_clock::now();
                const double prediction = primary_.predict(p.features);
                const double ns =
                    std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
                latency_[static_cast<int>(p.priority)]->record(ns);
                if (!std::isfinite(prediction))
                    throw std::runtime_error(
                        "primary model returned a non-finite "
                        "prediction");
                results[i].prediction = prediction;
                results[i].ok = true;
            },
            opts);
        for (const auto &f : failures) {
            results[f.index].ok = false;
            results[f.index].cancelled =
                f.disposition == par::TaskDisposition::Cancelled;
            results[f.index].error = f.error;
        }
    }

    // Commit results, breaker transitions and the LKG cache in
    // request-index order — the order workers finished in is
    // irrelevant, so the state machine replays bit-identically at any
    // thread count.
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            Pending &p = batch[i];
            SlotResult &r = results[i];
            if (r.ok) {
                onPrimarySuccessLocked(p.shard);
                serveLocked(std::move(p), r.prediction);
            } else if (r.cancelled) {
                shedLocked(std::move(p),
                           r.error.empty()
                               ? std::string("cancelled")
                               : "cancelled: " + r.error);
            } else {
                onPrimaryFailureLocked(p.shard);
                degradeLocked(std::move(p),
                              "primary failure: " + r.error);
            }
            ++resolved;
        }
        updateLiveGaugesLocked();
        // serve.kill models a SIGKILL landing after the in-memory
        // commit but before the tick reaches the journal: the tick is
        // lost and must be re-executed on resume, which is exactly
        // what the kill/resume determinism suite asserts.
        auto &inj = fi::Injector::instance();
        if (inj.armed())
            inj.maybeKill("serve.kill", tick_);
        journalCommitLocked();
    }
    return resolved;
}

std::size_t
PredictionService::drain(std::size_t maxTicks)
{
    std::size_t ticksRun = 0;
    while (queueDepth() > 0 && ticksRun < maxTicks) {
        tick();
        ++ticksRun;
    }
    if (queueDepth() > 0)
        DFAULT_WARN("serve: drain stopped after ", ticksRun,
                    " tick(s) with ", queueDepth(),
                    " request(s) still queued");
    return ticksRun;
}

std::vector<Response>
PredictionService::takeResponses()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (journal_ != nullptr) {
        if (queueDepthLocked() > 0)
            DFAULT_WARN("serve: takeResponses() mid-run on a journaled "
                        "service; the next snapshot's transcript only "
                        "covers responses still held");
        journal_->flushedResponses = 0;
    }
    std::vector<Response> out = std::move(responses_);
    responses_.clear();
    return out;
}

std::size_t
PredictionService::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queueDepthLocked();
}

BreakerState
PredictionService::breakerState(int shard) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return breakers_[std::clamp(shard, 0, params_.shards - 1)].state;
}

std::optional<double>
PredictionService::lastKnownGood(std::uint64_t key) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = lastKnownGood_.find(key);
    if (it == lastKnownGood_.end())
        return std::nullopt;
    return it->second;
}

} // namespace dfault::serve
