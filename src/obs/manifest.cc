#include "obs/manifest.hh"

#include <chrono>
#include <cstdio>
#include <ctime>

#include "common/rng.hh"
#include "fi/durable.hh"
#include "obs/json.hh"
#include "obs/stats.hh"

#ifndef __has_feature
#define __has_feature(x) 0 // gcc spells the sanitizers __SANITIZE_*__
#endif

namespace dfault::obs {

namespace {

std::string
isoTimestamp()
{
    const std::time_t now = std::chrono::system_clock::to_time_t(
        std::chrono::system_clock::now());
    std::tm tm{};
    gmtime_r(&now, &tm);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

} // namespace

bool
digestExcludes(const std::string &name)
{
    // time.* is pure wall clock; par.* depends on scheduling (steal
    // counts, per-phase seconds); fi.* records fault-injection and
    // recovery activity (retries, quarantines, checkpoint restores),
    // which varies between a faulted and a clean run of the same
    // config; anything measured in seconds is host-speed-dependent
    // wherever it lives; last_* gauges are last-writer-wins snapshots,
    // so their final value depends on which task published last.
    // journal.* records write-ahead-journal
    // activity (segments written, restores, quarantines), which
    // differs between a killed-and-resumed run and a clean one just
    // like fi.* does.
    // A path segment ending in _ns holds wall-clock nanoseconds
    // (campaign.cell_ns, serve.latency_ns.*) — the unit rule that
    // "seconds" states for the other scale. Nothing is excluded by
    // kind: a deterministic histogram (campaign.wer) is digested.
    return name.starts_with("time.") || name.starts_with("par.") ||
           name.starts_with("fi.") || name.starts_with("journal.") ||
           name.find("seconds") != std::string::npos ||
           name.ends_with("_ns") ||
           name.find("_ns.") != std::string::npos ||
           name.find("last_") != std::string::npos;
}

std::uint64_t
statsDigest(const Registry *registry)
{
    const Registry &reg =
        registry != nullptr ? *registry : Registry::instance();
    std::uint64_t hash = kFnvOffset64;
    char value[96];
    for (const StatSample &s : reg.sample()) {
        if (digestExcludes(s.name))
            continue;
        hash = fnv1a64(s.name, hash);
        hash = fnv1a64("=", hash);
        // 9 significant digits: enough to catch any real drift, few
        // enough that float-sum reassociation across thread counts
        // (last-ulp differences in accumulated gauges) cannot perturb
        // the digest.
        std::snprintf(value, sizeof(value), "%.9g", s.value);
        hash = fnv1a64(value, hash);
        if (s.hist) {
            // A histogram's mean alone could hide a moved record; its
            // integer buckets and exact extrema pin the multiset.
            std::snprintf(value, sizeof(value), " %llu %llu %.17g %.17g",
                          static_cast<unsigned long long>(s.hist->count),
                          static_cast<unsigned long long>(s.hist->zeros),
                          s.hist->min, s.hist->max);
            hash = fnv1a64(value, hash);
            for (const auto &[index, n] : s.hist->buckets) {
                std::snprintf(value, sizeof(value), " %d:%llu", index,
                              static_cast<unsigned long long>(n));
                hash = fnv1a64(value, hash);
            }
        }
        hash = fnv1a64("\n", hash);
    }
    return hash;
}

std::string
buildInfoJson()
{
    JsonWriter w;
#if defined(__VERSION__)
    w.field("compiler", __VERSION__);
#else
    w.field("compiler", "unknown");
#endif
    w.field("cxx_standard",
            static_cast<std::int64_t>(__cplusplus));
#if defined(NDEBUG)
    w.field("assertions", false);
#else
    w.field("assertions", true);
#endif
#if defined(__SANITIZE_ADDRESS__) || __has_feature(address_sanitizer)
    w.field("asan", true);
#else
    w.field("asan", false);
#endif
#if defined(__SANITIZE_THREAD__) || __has_feature(thread_sanitizer)
    w.field("tsan", true);
#else
    w.field("tsan", false);
#endif
    return w.str();
}

std::string
manifestJson(const ManifestInfo &info, const Registry *registry)
{
    const Registry &reg =
        registry != nullptr ? *registry : Registry::instance();

    JsonWriter w;
    w.field("manifest_version", 1);
    w.field("tool", info.tool);
    w.field("command", info.command);
    w.field("created_utc", isoTimestamp());
    w.field("threads", info.threads);

    JsonWriter config;
    for (const auto &kv : info.config)
        config.field(kv.first, kv.second);
    w.fieldRaw("config", config.str());

    w.fieldRaw("build", buildInfoJson());
    w.field("wall_seconds", info.wallSeconds);
    if (info.interrupted) {
        w.field("interrupted", true);
        if (!info.interruptReason.empty())
            w.field("interrupt_reason", info.interruptReason);
    }
    if (info.resumedFromTick >= 0)
        w.field("resumed_from_tick", info.resumedFromTick);
    if (!info.statsPath.empty())
        w.field("stats_out", info.statsPath);
    if (!info.tracePath.empty())
        w.field("trace_events", info.tracePath);

    JsonWriter stats;
    stats.field("total", static_cast<std::uint64_t>(reg.size()));
    std::uint64_t digested = 0;
    for (const std::string &name : reg.names())
        if (!digestExcludes(name))
            ++digested;
    stats.field("digested", digested);
    char digest[24];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(
                      statsDigest(&reg)));
    stats.field("digest", digest);
    w.fieldRaw("stats", stats.str());
    return w.str();
}

bool
writeManifestFile(const std::string &path, const ManifestInfo &info,
                  const Registry *registry)
{
    return fi::atomicWriteFile(path, manifestJson(info, registry) + "\n");
}

} // namespace dfault::obs
