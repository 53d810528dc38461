#include "core/characterization.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <limits>

#include "common/logging.hh"
#include "common/rng.hh"
#include "core/checkpoint.hh"
#include "dram/power.hh"
#include "fi/injector.hh"
#include "obs/deferral.hh"
#include "obs/events.hh"
#include "obs/span.hh"
#include "obs/stats.hh"
#include "obs/timer.hh"
#include "par/cancel.hh"
#include "par/pool.hh"

namespace dfault::core {

CharacterizationCampaign::CharacterizationCampaign(sys::Platform &platform)
    : CharacterizationCampaign(platform, Params{})
{
}

CharacterizationCampaign::CharacterizationCampaign(sys::Platform &platform,
                                                   const Params &params)
    : platform_(platform), params_(params), integrator_(params.integrator)
{
}

Measurement
CharacterizationCampaign::measure(const workloads::WorkloadConfig &config,
                                  const dram::OperatingPoint &op,
                                  std::uint64_t run_seed,
                                  dram::ErrorLog *log)
{
    // A pool batch checks the flag before every attempt; a direct
    // call runs outside the pool, so it checks here, before committing
    // to the cell.
    par::throwIfCancelled();
    return measureCell(platform_, {&config, &op, run_seed}, 0, log);
}

Measurement
CharacterizationCampaign::measureCell(sys::Platform &platform,
                                      const Cell &cell, int attempt,
                                      dram::ErrorLog *log)
{
    const workloads::WorkloadConfig &config = *cell.config;
    const dram::OperatingPoint &op = *cell.op;
    op.validate();

    const auto cell_start = std::chrono::steady_clock::now();

    // "label @ op" names the cell on the watchdog's heartbeat board
    // (pool tasks only), in the trace and on the progress line; built
    // only when one of them is listening.
    auto &tracer = obs::SpanTracer::instance();
    const std::string where =
        par::Pool::currentSlot() >= 0 || tracer.enabled() ||
                obs::progressEnabled()
            ? config.label + " @ " + op.label()
            : std::string();

    // The cell key is derived from labels, not indices, so the fault
    // schedule is identical whether the cell runs through measure()
    // or a batch; the attempt re-rolls it so max_attempt-bounded
    // faults recover under retry.
    auto &inj = fi::Injector::instance();
    const std::uint64_t cell_key =
        inj.armed() ? hashCombine(fnv1a64(config.label),
                                  fnv1a64(op.label()))
                    : 0;

    // Heartbeat contract: annotate + beat before the first fault
    // point, so a stall injected here is already under watchdog
    // observation, and beat again right after — a flagged stall then
    // raises TaskTimeoutError into the retry/quarantine machinery.
    par::heartbeatAnnotate(where);
    par::heartbeat();
    if (inj.armed())
        // Models a stuck device before the thermal settle (named
        // campaign.hang before it gained real stall semantics).
        inj.maybeStall("task.stall", cell_key, attempt);
    par::heartbeat();

    const features::WorkloadProfile &profile =
        features::ProfileCache::instance().get(platform, config,
                                               params_.workload);

    Measurement m;
    m.label = config.label;
    m.threads = config.threads;
    m.requested = op;
    m.achieved = op;
    m.profile = &profile;

    if (params_.useThermalLoop) {
        const obs::ScopedTimer settle_timer("thermal_settle");
        auto &thermal = platform.thermal();
        // Start from a reset testbed: the settle must not depend on
        // which experiment (if any) heated the DIMMs before this one.
        thermal.reset();
        // DRAM self-heating: each DIMM dissipates according to its
        // share of the workload's command activity; the PID loop has
        // to regulate around it, exactly as on the physical testbed.
        const dram::PowerModel power;
        const auto &geometry = platform.geometry();
        for (int dimm = 0; dimm < geometry.params().channels; ++dimm) {
            double act_rate = 0.0, cmd_rate = 0.0;
            for (int rank = 0; rank < geometry.params().ranksPerDimm;
                 ++rank) {
                const int dev = geometry.deviceIndex(
                    dram::DeviceId{dimm, rank});
                for (const auto &row : profile.deviceRows[dev]) {
                    act_rate += row.activationRate;
                    cmd_rate += row.accessRate;
                }
            }
            const double watts =
                power.rankPower(op, act_rate, cmd_rate).total() -
                power.rankPower(op, 0.0, 0.0).background;
            thermal.setDramPower(dimm, std::max(0.0, watts));
        }
        thermal.setTargetAll(op.temperature);
        if (!thermal.stepUntilSettled())
            DFAULT_FATAL("thermal testbed failed to settle at ",
                         op.temperature, " C");
        double achieved = 0.0;
        for (int d = 0; d < thermal.dimms(); ++d)
            achieved += thermal.temperature(d);
        m.achieved.temperature = achieved / thermal.dimms();
    }
    // Cooperative cancellation between the settle and the integration.
    // A CancelledError reaches the pool's Cancelled disposition, never
    // the retry/quarantine path.
    par::throwIfCancelled();
    par::heartbeat();

    double integrate_seconds = 0.0;
    {
        const obs::ScopedTimer integrate_timer("integrate");
        // Name the measurement in the trace: the "integrate" span of
        // this cell shows which (workload, operating point) it ran.
        if (tracer.enabled())
            obs::ScopedTimer::annotate(where);
        // Only the epoch draws depend on the run seed. A run with an
        // error log bypasses the memo: its record sampling needs each
        // device's hot rows, which the memo does not keep.
        if (log != nullptr)
            m.run = integrator_.run(profile, m.achieved,
                                    platform.geometry(),
                                    platform.devices(), cell.runSeed, log);
        else
            m.run = integrator_.runEpochs(
                profile, m.achieved, platform.geometry(),
                intensityFor(platform, profile, m.achieved)->devices,
                cell.runSeed);
        integrate_seconds = integrate_timer.elapsed();
    }

    if (inj.armed() && inj.shouldFire("measure.nan", cell_key, attempt)) {
        // Models corrupted telemetry (an overflowed ECC log, a torn
        // counter read): the numbers arrive, but are garbage. The
        // dataset builder is expected to quarantine the sample.
        DFAULT_WARN("injected measurement corruption for ", config.label,
                    " at ", op.label());
        if (!m.run.werSeries.empty())
            m.run.werSeries.back() =
                std::numeric_limits<double>::quiet_NaN();
        if (!m.run.cePerDevice.empty())
            m.run.cePerDevice.front() =
                std::numeric_limits<double>::quiet_NaN();
    }

    // publish*() so a batch cell's deferral can capture these (see
    // measureCells(): drop on a failed attempt, replay from a
    // checkpoint).
    obs::publishCounter("campaign.measurements",
                        "characterization experiments completed");
    if (m.run.crashed)
        obs::publishCounter("campaign.crashes",
                            "experiments ended by a UE");
    const double wer = m.run.wer();
    // WER spans ~10 decades across the grid, exactly the log-bucket
    // sweet spot. Deferral-aware so checkpoint replay reproduces a
    // bit-identical histogram.
    if (wer > 0.0)
        obs::publishHistogram("campaign.wer",
                              "measured aggregate WER per experiment",
                              wer);

    auto &sink = obs::EventSink::instance();
    if (sink.enabled()) {
        obs::JsonWriter w;
        w.field("label", m.label);
        w.field("threads", m.threads);
        w.field("trefp_s", op.trefp);
        w.field("vdd_v", op.vdd);
        w.field("target_c", op.temperature);
        w.field("temp_c", m.achieved.temperature);
        w.field("run_seed", cell.runSeed);
        w.field("wer", wer);
        w.field("epochs",
                static_cast<std::uint64_t>(m.run.werSeries.size()));
        w.field("crashed", m.run.crashed);
        if (m.run.crashed) {
            w.field("crash_epoch", m.run.crashEpoch);
            w.field("crash_device", m.run.crashDevice);
        }
        w.field("host_seconds", integrate_seconds);
        sink.emit("measurement", w);
    }
    if (obs::progressEnabled())
        obs::progress(where + ": wer=" + detail::concat(wer) +
                      (m.run.crashed
                           ? " UE@min" + std::to_string(m.run.crashEpoch)
                           : ""));
    // Cell latency goes straight to the registry, not through the
    // deferral: wall time is nondeterministic, so replaying a stale
    // duration on checkpoint resume would be worse than dropping it.
    obs::Registry::instance()
        .histogram("campaign.cell_ns",
                   "characterization cell wall-clock (nanoseconds)")
        .record(std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - cell_start)
                    .count());
    return m;
}

sys::Platform &
CharacterizationCampaign::slotPlatform()
{
    const int slot = par::Pool::currentSlot();
    if (slot <= 0)
        return platform_;
    DFAULT_ASSERT(static_cast<std::size_t>(slot) < replicas_.size(),
                  "pool slot without a replica array entry");
    auto &replica = replicas_[static_cast<std::size_t>(slot)];
    if (!replica)
        replica = platform_.clone();
    return *replica;
}

std::shared_ptr<const CharacterizationCampaign::IntensityEntry>
CharacterizationCampaign::intensityFor(
    const sys::Platform &platform, const features::WorkloadProfile &profile,
    const dram::OperatingPoint &achieved)
{
    const IntensityKey key{reinterpret_cast<std::uintptr_t>(&profile),
                           std::bit_cast<std::uint64_t>(achieved.trefp),
                           std::bit_cast<std::uint64_t>(achieved.vdd),
                           std::bit_cast<std::uint64_t>(
                               achieved.temperature)};

    // Two-phase lookup, as in features::ProfileCache::get(): the map
    // mutex only pins the entry; the per-row pass runs outside it, once
    // per key even when PUE repeats of one cell reach it together.
    std::shared_ptr<IntensityEntry> entry;
    {
        const std::lock_guard<std::mutex> lock(intensityMutex_);
        // A ProfileCache::clear() frees the profiles the keys point
        // at, and a new profile can take a freed address.
        const std::uint64_t generation =
            features::ProfileCache::instance().generation();
        if (generation != intensityGeneration_) {
            intensities_.clear();
            intensityGeneration_ = generation;
        }
        auto &slot = intensities_[key];
        if (!slot)
            slot = std::make_shared<IntensityEntry>();
        entry = slot;
    }

    std::call_once(entry->once, [&] {
        entry->devices = integrator_.intensity(
            profile, achieved, platform.geometry(), platform.devices());
    });
    return entry;
}

std::vector<Measurement>
CharacterizationCampaign::measureCells(const std::vector<Cell> &cells,
                                       bool fail_fast,
                                       const CheckpointJournal *journal)
{
    auto &pool = par::Pool::global();
    replicas_.resize(std::max(replicas_.size(),
                              static_cast<std::size_t>(pool.threads())));
    par::ResilienceOptions opts;
    opts.maxRetries = params_.taskRetries;
    opts.failFast = true;

    // Profile every workload before the cell loop. The cache fills
    // exactly once per config either way; doing it up front keeps the
    // platform.* / profile.* stats independent of which cells are
    // measured fresh, restored from a checkpoint, or quarantined.
    std::vector<const workloads::WorkloadConfig *> configs;
    for (const Cell &cell : cells)
        if (std::find(configs.begin(), configs.end(), cell.config) ==
            configs.end())
            configs.push_back(cell.config);
    pool.parallelForResilient(
        configs.size(),
        [&](std::size_t w, int) {
            features::ProfileCache::instance().get(
                slotPlatform(), *configs[w], params_.workload);
        },
        opts);

    const bool journaling = journal != nullptr && journal->enabled();
    std::map<std::size_t, CheckpointCell> restored;
    if (journaling) {
        restored = journal->load(cells.size());
        if (!restored.empty())
            obs::progress("checkpoint: restoring " +
                          std::to_string(restored.size()) + "/" +
                          std::to_string(cells.size()) + " cells from " +
                          params_.checkpointDir);
    }

    // One task per cell, committed in cell order: the result vector
    // is identical whatever the worker schedule.
    std::vector<Measurement> out(cells.size());
    std::vector<std::vector<obs::StatOp>> cell_ops(cells.size());
    opts.failFast = fail_fast;
    const auto failures = pool.parallelForResilient(
        cells.size(),
        [&](std::size_t i, int attempt) {
            if (restored.count(i) != 0)
                return; // committed after the batch, in cell order
            // Buffer this cell's stat updates: a failed attempt must
            // contribute nothing, and a successful one is journaled
            // with the cell and applied post-batch in cell order.
            obs::StatsDeferral deferral;
            Measurement m =
                measureCell(slotPlatform(), cells[i], attempt, nullptr);
            std::vector<obs::StatOp> ops = deferral.take();
            if (journaling) {
                journal->store({i, m, ops});
                // Chaos testing: a kill between journal writes.
                fi::Injector::instance().maybeKill("sweep.kill", i);
            }
            out[i] = std::move(m);
            cell_ops[i] = std::move(ops);
        },
        opts);

    // Failed cells (only reachable when !fail_fast) are quarantined;
    // cancelled cells are a distinct disposition — marked but never
    // quarantined, reported or journaled, so a resumed sweep simply
    // re-measures them.
    std::size_t n_cancelled = 0;
    for (const par::TaskFailure &f : failures) {
        const Cell &cell = cells[f.index];
        Measurement &m = out[f.index];
        m.label = cell.config->label;
        m.threads = cell.config->threads;
        m.requested = *cell.op;
        m.achieved = *cell.op;
        m.failure = f.error;
        if (f.disposition == par::TaskDisposition::Cancelled) {
            m.cancelled = true;
            ++n_cancelled;
            continue;
        }
        m.quarantined = true;
        lastQuarantine_.push_back({f.index, m.label, cell.op->label(),
                                   f.attempts, f.error});
        DFAULT_WARN("sweep: quarantined cell ", f.index, " (", m.label,
                    " @ ", cell.op->label(), ") after ", f.attempts,
                    " attempt(s): ", f.error);
    }
    if (failures.size() > n_cancelled)
        obs::Registry::instance()
            .counter("fi.quarantined_slots",
                     "sweep cells quarantined after exhausting retries")
            .inc(failures.size() - n_cancelled);
    if (n_cancelled > 0)
        DFAULT_INFORM("sweep: ", n_cancelled, " cell(s) cancelled (",
                      par::cancelled() ? par::cancelReason()
                                       : std::string("by a task"),
                      ")",
                      journaling ? "; rerun with the same checkpoint dir"
                                   " to finish them"
                                 : "");

    // Restored cells: rebuild the measurement (profile pointer from
    // the cache warmed above) and queue their journaled stat ops.
    for (auto &[index, cell] : restored) {
        out[index] = std::move(cell.measurement);
        out[index].profile = &features::ProfileCache::instance().get(
            platform_, *cells[index].config, params_.workload);
        cell_ops[index] = std::move(cell.statOps);
    }
    if (!restored.empty())
        obs::Registry::instance()
            .counter("fi.checkpoint_restored",
                     "sweep cells restored from a checkpoint journal")
            .inc(restored.size());

    // Apply every cell's stats in cell order: fresh, restored and
    // resumed runs all reach the identical registry state.
    for (const auto &ops : cell_ops)
        obs::applyStatOps(ops);
    return out;
}

std::vector<Measurement>
CharacterizationCampaign::sweep(
    const std::vector<workloads::WorkloadConfig> &suite,
    const std::vector<dram::OperatingPoint> &points)
{
    const obs::ScopedTimer sweep_timer("sweep");
    lastQuarantine_.clear();
    std::vector<Cell> cells;
    for (const auto &config : suite)
        for (const auto &op : points)
            cells.push_back({&config, &op, 0});

    CheckpointJournal journal;
    if (!params_.checkpointDir.empty())
        journal.open(params_.checkpointDir,
                     sweepConfigDigest(params_, suite, points));
    return measureCells(cells, params_.failFast, &journal);
}

std::vector<double>
CharacterizationCampaign::measurePue(
    const std::vector<workloads::WorkloadConfig> &suite,
    const std::vector<dram::OperatingPoint> &points, int repeats)
{
    DFAULT_ASSERT(repeats > 0, "PUE needs at least one repeat");
    const obs::ScopedTimer pue_timer("pue");
    const auto n = static_cast<std::size_t>(repeats);
    std::vector<Cell> cells;
    for (const auto &config : suite)
        for (const auto &op : points)
            for (std::uint64_t r = 1; r <= n; ++r)
                cells.push_back({&config, &op, r});

    const auto measurements = measureCells(cells, true, nullptr);
    std::vector<double> pue(suite.size() * points.size(), 0.0);
    for (std::size_t i = 0; i < measurements.size(); ++i)
        pue[i / n] += measurements[i].run.crashed ? 1.0 : 0.0;
    for (double &p : pue)
        p /= static_cast<double>(repeats);
    return pue;
}

std::vector<dram::OperatingPoint>
werOperatingPoints()
{
    std::vector<dram::OperatingPoint> points;
    for (const Celsius temp : {50.0, 60.0}) {
        for (const Seconds trefp : dram::kWerTrefpLevels)
            points.push_back({trefp, dram::kMinVdd, temp});
    }
    // At 70 C only the two shortest TREFP levels stay UE-free (paper
    // §V-B); longer periods crash and contribute to the PUE study.
    points.push_back({0.618, dram::kMinVdd, 70.0});
    points.push_back({1.173, dram::kMinVdd, 70.0});
    return points;
}

std::vector<dram::OperatingPoint>
pueOperatingPoints()
{
    std::vector<dram::OperatingPoint> points;
    for (const Seconds trefp : dram::kUeTrefpLevels)
        points.push_back({trefp, dram::kMinVdd, 70.0});
    return points;
}

} // namespace dfault::core
