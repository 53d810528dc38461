#include "features/extractor.hh"

#include <algorithm>
#include <map>

#include "common/logging.hh"
#include "obs/events.hh"
#include "obs/stats.hh"
#include "obs/timer.hh"
#include "stats/summary.hh"
#include "trace/entropy_sampler.hh"
#include "trace/reuse_tracker.hh"

namespace dfault::features {

namespace {

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

WorkloadProfile
extractProfile(sys::Platform &platform,
               const workloads::WorkloadConfig &config,
               const workloads::Workload::Params &wparams)
{
    const obs::ScopedTimer timer("profile");
    const auto &geometry = platform.geometry();

    // Instrumentation (the DynamoRIO stand-ins). The tracker range gets
    // a slack margin over the requested footprint because kernels round
    // array shapes to convenient sizes.
    trace::ReuseTracker reuse(wparams.footprintBytes +
                              (wparams.footprintBytes / 4) + (4 << 20));
    trace::EntropySampler entropy;
    platform.bus().attach(&reuse);
    platform.bus().attach(&entropy);

    auto workload = workloads::createWorkload(config.kernel, wparams);
    sys::ExecutionContext ctx = platform.startRun(config.threads);
    workload->run(ctx);

    platform.bus().detach(&reuse);
    platform.bus().detach(&entropy);

    const double clock_hz = ctx.params().clockHz;
    const double dilation = ctx.params().timeDilation;
    const auto totals = ctx.totalStats();
    const auto wall_cycles = static_cast<double>(ctx.wallCycles());
    const double total_cycles = static_cast<double>(totals.cycles);
    const double instr = static_cast<double>(totals.instructions);
    const double kc = wall_cycles / 1000.0;

    WorkloadProfile profile;
    profile.label = config.label;
    profile.threads = config.threads;
    profile.wallSeconds = ctx.wallSeconds();
    profile.footprintWords = ctx.footprintBytes() / units::bytesPerWord;
    profile.treuse =
        reuse.meanReuseDistance() * ctx.wallSecondsPerInstruction();
    profile.entropy = entropy.entropyBits();
    profile.bitOneProb = entropy.bitOneProbabilities();

    // ---- Per-row DRAM activity -------------------------------------
    profile.deviceRows.resize(geometry.deviceCount());
    const double wall_s = profile.wallSeconds;
    for (int ch = 0; ch < geometry.params().channels; ++ch) {
        const auto &mcu = platform.hierarchy().mcu(ch);
        for (int rank = 0; rank < geometry.params().ranksPerDimm; ++rank) {
            const int dev =
                geometry.deviceIndex(dram::DeviceId{ch, rank});
            const auto &rows = mcu.rowActivity(rank);
            for (std::uint64_t r = 0; r < rows.size(); ++r) {
                const auto &row = rows[r];
                if (row.accesses == 0)
                    continue;
                RowStat stat;
                stat.rowIndex = r;
                stat.accessRate =
                    ratio(static_cast<double>(row.accesses), wall_s);
                stat.activationRate =
                    ratio(static_cast<double>(row.activations), wall_s);
                // The implicit-refresh window is the longest stretch
                // the row went unaccessed: bursty patterns (scan +
                // writeback ping-pong) have many short gaps but the
                // decay happens in the long ones.
                stat.longestGap = static_cast<double>(row.maxGapCycles) *
                                  dilation / clock_hz;
                stat.touchedWords = row.touchedWords();
                profile.deviceRows[dev].push_back(stat);
            }
        }
    }

    // ---- Feature vector --------------------------------------------
    FeatureVector &f = profile.features;
    // The paper's strongest WER correlate: the rate of memory accesses
    // reaching DRAM. On the X-Gene2 this is observed through the MCU
    // read/write command counters (paper §VI-A notes the per-MCU
    // command rates correlate as strongly as the access rate); the
    // instruction-level load/store rates are exported separately as
    // loads_per_cycle / stores_per_cycle.
    std::uint64_t mcu_cmds = 0;
    for (int m = 0; m < platform.hierarchy().mcuCount(); ++m)
        mcu_cmds += platform.hierarchy().mcu(m).counters().totalCmds();
    f[kMemAccessesPerCycle] =
        ratio(static_cast<double>(mcu_cmds), wall_cycles);
    f[kWaitCyclesRatio] =
        ratio(static_cast<double>(totals.waitCycles), total_cycles);
    f[kHdpEntropy] = profile.entropy;
    f[kTreuseSeconds] = profile.treuse;
    f[kIpc] = ratio(instr, total_cycles);
    f[kCpuUtilization] =
        ratio(total_cycles,
              wall_cycles * platform.hierarchy().cores());

    // The catalog models the X-Gene2's four MCUs; smaller custom
    // geometries leave the missing channels' features at zero.
    const int mcu_count = std::min(4, platform.hierarchy().mcuCount());
    for (int m = 0; m < mcu_count; ++m) {
        const auto &c = platform.hierarchy().mcu(m).counters();
        const std::string p = "mcu" + std::to_string(m) + "_";
        f.set(p + "read_cmds_per_kc",
              ratio(static_cast<double>(c.readCmds), kc));
        f.set(p + "write_cmds_per_kc",
              ratio(static_cast<double>(c.writeCmds), kc));
        f.set(p + "activations_per_kc",
              ratio(static_cast<double>(c.activations), kc));
        f.set(p + "precharges_per_kc",
              ratio(static_cast<double>(c.precharges), kc));
        f.set(p + "row_hits_per_kc",
              ratio(static_cast<double>(c.rowHits), kc));
        f.set(p + "row_misses_per_kc",
              ratio(static_cast<double>(c.rowMisses), kc));
        f.set(p + "row_hit_ratio",
              ratio(static_cast<double>(c.rowHits),
                    static_cast<double>(c.rowHits + c.rowMisses)));
        f.set(p + "read_write_ratio",
              ratio(static_cast<double>(c.readCmds),
                    static_cast<double>(c.totalCmds())));
    }

    const auto l1 = platform.hierarchy().l1CountersTotal();
    f.set("l1_read_accesses_per_kc",
          ratio(static_cast<double>(l1.readAccesses), kc));
    f.set("l1_write_accesses_per_kc",
          ratio(static_cast<double>(l1.writeAccesses), kc));
    f.set("l1_read_misses_per_kc",
          ratio(static_cast<double>(l1.readMisses), kc));
    f.set("l1_write_misses_per_kc",
          ratio(static_cast<double>(l1.writeMisses), kc));
    f.set("l1_writebacks_per_kc",
          ratio(static_cast<double>(l1.writebacks), kc));
    f.set("l1_miss_ratio", l1.missRatio());
    f.set("l1_read_miss_ratio",
          ratio(static_cast<double>(l1.readMisses),
                static_cast<double>(l1.readAccesses)));
    f.set("l1_write_miss_ratio",
          ratio(static_cast<double>(l1.writeMisses),
                static_cast<double>(l1.writeAccesses)));

    for (int c = 0; c < 8; ++c) {
        const std::string p = "core" + std::to_string(c) + "_l1_";
        if (c < platform.hierarchy().cores()) {
            const auto &cc = platform.hierarchy().l1Counters(c);
            f.set(p + "accesses_per_kc",
                  ratio(static_cast<double>(cc.accesses()), kc));
            f.set(p + "miss_ratio", cc.missRatio());
        }
    }

    const auto &l2 = platform.hierarchy().l2Counters();
    f.set("l2_read_accesses_per_kc",
          ratio(static_cast<double>(l2.readAccesses), kc));
    f.set("l2_write_accesses_per_kc",
          ratio(static_cast<double>(l2.writeAccesses), kc));
    f.set("l2_read_misses_per_kc",
          ratio(static_cast<double>(l2.readMisses), kc));
    f.set("l2_write_misses_per_kc",
          ratio(static_cast<double>(l2.writeMisses), kc));
    f.set("l2_writebacks_per_kc",
          ratio(static_cast<double>(l2.writebacks), kc));
    f.set("l2_miss_ratio", l2.missRatio());
    f.set("l2_read_miss_ratio",
          ratio(static_cast<double>(l2.readMisses),
                static_cast<double>(l2.readAccesses)));
    f.set("l2_write_miss_ratio",
          ratio(static_cast<double>(l2.writeMisses),
                static_cast<double>(l2.writeAccesses)));

    f.set("int_ops_per_cycle",
          ratio(static_cast<double>(totals.intOps), total_cycles));
    f.set("fp_ops_per_cycle",
          ratio(static_cast<double>(totals.fpOps), total_cycles));
    f.set("loads_per_cycle",
          ratio(static_cast<double>(totals.loads), total_cycles));
    f.set("stores_per_cycle",
          ratio(static_cast<double>(totals.stores), total_cycles));
    f.set("branches_per_cycle",
          ratio(static_cast<double>(totals.branches), total_cycles));
    f.set("branch_miss_ratio",
          ratio(static_cast<double>(totals.branchMisses),
                static_cast<double>(totals.branches)));
    f.set("mem_instr_ratio",
          ratio(static_cast<double>(totals.memInstructions()), instr));
    f.set("fp_instr_ratio",
          ratio(static_cast<double>(totals.fpOps), instr));
    f.set("store_ratio",
          ratio(static_cast<double>(totals.stores),
                static_cast<double>(totals.memInstructions())));
    f.set("cpi", ratio(total_cycles, instr));

    for (int t = 0; t < 8; ++t) {
        const std::string p = "thread" + std::to_string(t) + "_";
        if (t < config.threads) {
            const auto &ts = ctx.coreStats(t);
            const auto tc = static_cast<double>(ts.cycles);
            f.set(p + "ipc",
                  ratio(static_cast<double>(ts.instructions), tc));
            f.set(p + "mem_per_cycle",
                  ratio(static_cast<double>(ts.memInstructions()), tc));
            f.set(p + "wait_ratio",
                  ratio(static_cast<double>(ts.waitCycles), tc));
            f.set(p + "fp_ratio",
                  ratio(static_cast<double>(ts.fpOps),
                        static_cast<double>(ts.instructions)));
        }
    }

    const auto &dist = reuse.distanceStats();
    f.set("reuse_distance_mean", dist.mean());
    f.set("reuse_distance_stddev", dist.stddev());
    f.set("reuse_fraction",
          ratio(static_cast<double>(reuse.reuseCount()),
                static_cast<double>(reuse.reuseCount() +
                                    reuse.uniqueWords())));
    f.set("unique_words_per_instr",
          ratio(static_cast<double>(reuse.uniqueWords()), instr));

    // ---- Row-level aggregates ---------------------------------------
    stats::RunningStats acc_rate, act_rate, interval, words_touched;
    std::vector<double> intervals;
    std::uint64_t touched_rows = 0;
    double bank_acts[4][8] = {};
    double chan_acts[4] = {};
    double dev_words[8] = {};
    stats::RunningStats dev_interval[8];
    double total_words_touched = 0.0;
    const auto rows_per_bank = geometry.params().rowsPerBank;

    for (int dev = 0; dev < geometry.deviceCount(); ++dev) {
        const auto id = geometry.deviceAt(dev);
        for (const auto &row : profile.deviceRows[dev]) {
            ++touched_rows;
            acc_rate.add(row.accessRate);
            act_rate.add(row.activationRate);
            if (row.longestGap > 0.0) {
                interval.add(row.longestGap);
                intervals.push_back(row.longestGap);
                if (dev < 8)
                    dev_interval[dev].add(row.longestGap);
            }
            words_touched.add(row.touchedWords);
            const auto bank = static_cast<int>(row.rowIndex /
                                               rows_per_bank);
            if (id.dimm < 4 && bank < 8) {
                bank_acts[id.dimm][bank] += row.activationRate;
                chan_acts[id.dimm] += row.activationRate;
            }
            if (dev < 8)
                dev_words[dev] += row.touchedWords;
            total_words_touched += row.touchedWords;
        }
    }

    const double total_rows =
        static_cast<double>(geometry.rowsPerDevice()) *
        geometry.deviceCount();
    f.set("rows_touched_fraction",
          ratio(static_cast<double>(touched_rows), total_rows));
    f.set("row_access_rate_mean", acc_rate.mean());
    f.set("row_activation_rate_mean", act_rate.mean());
    f.set("row_interval_mean_s", interval.mean());
    if (!intervals.empty()) {
        f.set("row_interval_p50_s", stats::quantile(intervals, 0.5));
        f.set("row_interval_p90_s", stats::quantile(intervals, 0.9));
    }
    f.set("row_words_touched_mean", words_touched.mean());

    std::uint64_t dram_cmds = 0, dram_reads = 0, dram_acts = 0;
    for (int m = 0; m < platform.hierarchy().mcuCount(); ++m) {
        const auto &c = platform.hierarchy().mcu(m).counters();
        dram_cmds += c.totalCmds();
        dram_reads += c.readCmds;
        dram_acts += c.activations;
    }
    f.set("dram_cmds_per_kc",
          ratio(static_cast<double>(dram_cmds), kc));
    f.set("dram_read_fraction",
          ratio(static_cast<double>(dram_reads),
                static_cast<double>(dram_cmds)));
    f.set("dram_act_per_cmd",
          ratio(static_cast<double>(dram_acts),
                static_cast<double>(dram_cmds)));
    f.set("dram_bytes_per_instr",
          ratio(static_cast<double>(dram_cmds) * 64.0, instr));
    f.set("dram_touch_rate",
          ratio(static_cast<double>(touched_rows), wall_s));

    for (int ch = 0; ch < 4; ++ch)
        for (int b = 0; b < 8; ++b)
            f.set("ch" + std::to_string(ch) + "_bank" +
                      std::to_string(b) + "_act_share",
                  ratio(bank_acts[ch][b], chan_acts[ch]));

    for (int d = 0; d < 8; ++d) {
        f.set("dev" + std::to_string(d) + "_words_touched_share",
              ratio(dev_words[d], total_words_touched));
        f.set("dev" + std::to_string(d) + "_row_interval_s",
              dev_interval[d].mean());
    }

    stats::RunningStats bit_stats;
    for (const double p : profile.bitOneProb)
        bit_stats.add(p);
    f.set("bit_one_prob_mean", bit_stats.mean());
    f.set("bit_one_prob_stddev", bit_stats.stddev());
    f.set("bit_one_prob_min", bit_stats.min());
    f.set("bit_one_prob_max", bit_stats.max());
    for (int b = 0; b < 64; ++b)
        f.set("bit" + std::to_string(b) + "_one_prob",
              profile.bitOneProb[b]);

    f.set("footprint_mwords",
          static_cast<double>(profile.footprintWords) / 1e6);
    f.set("profile_wall_seconds", profile.wallSeconds);
    f.set("sampled_stores_per_kinstr",
          ratio(static_cast<double>(entropy.sampledStores()) * 1000.0,
                instr));
    f.set("threads_active", config.threads);
    f.set("global_instr_gops", instr / 1e9);

    // ---- Telemetry --------------------------------------------------
    ctx.publishStats();
    obs::Registry::instance()
        .counter("profile.runs", "workload profiling runs")
        .inc();
    auto &sink = obs::EventSink::instance();
    if (sink.enabled()) {
        obs::JsonWriter w;
        w.field("label", profile.label);
        w.field("threads", profile.threads);
        w.field("instructions", totals.instructions);
        w.field("wall_seconds", profile.wallSeconds);
        w.field("treuse_s", profile.treuse);
        w.field("entropy_bits", profile.entropy);
        w.field("footprint_words", profile.footprintWords);
        w.field("host_seconds", timer.elapsed());
        sink.emit("profile", w);
    }
    obs::progress("profiled " + profile.label + " (" +
                  std::to_string(profile.threads) + " threads)");

    return profile;
}

ProfileCache &
ProfileCache::instance()
{
    static ProfileCache cache;
    return cache;
}

const WorkloadProfile &
ProfileCache::get(sys::Platform &platform,
                  const workloads::WorkloadConfig &config,
                  const workloads::Workload::Params &wparams)
{
    const std::string key =
        config.label + "/" + std::to_string(config.threads) + "/" +
        std::to_string(wparams.footprintBytes) + "/" +
        std::to_string(wparams.seed) + "/" +
        std::to_string(wparams.workScale) + "/" +
        std::to_string(platform.params().devices.masterSeed) + "/" +
        std::to_string(platform.params().exec.timeDilation) + "/" +
        std::to_string(platform.params().hierarchy.l1.sizeBytes) + "/" +
        std::to_string(platform.params().hierarchy.l2.sizeBytes) + "/" +
        std::to_string(platform.params().geometry.rowsPerBank);

    // Two-phase lookup: the map mutex is held only long enough to pin
    // the entry; the (expensive) extraction happens outside it, with
    // std::call_once giving each key exactly-one-computation semantics
    // even when several pool workers request it at the same moment.
    std::shared_ptr<Entry> entry;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        auto &slot = entries_[key];
        if (!slot)
            slot = std::make_shared<Entry>();
        entry = slot;
    }

    std::call_once(entry->once, [&] {
        DFAULT_INFORM("profiling ", config.label, " (", config.threads,
                      " threads)");
        entry->profile = extractProfile(platform, config, wparams);
    });
    return entry->profile;
}

void
ProfileCache::clear()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    ++generation_;
}

} // namespace dfault::features
