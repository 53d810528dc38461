/**
 * @file
 * Run provenance manifests: every figure- or stats-producing run
 * writes one JSON document from which the run can be reproduced and
 * its artifacts traced back — the command line, resolved config keys,
 * thread count, build flavor (compiler, sanitizers, NDEBUG), wall
 * time, and a digest of the *deterministic* slice of the stats
 * registry.
 *
 * The digest deliberately excludes scheduling- and host-dependent
 * stats (the time.* phase gauges, the whole par.* subtree — steal
 * counts depend on scheduling — anything holding seconds or, in a
 * path segment ending in `_ns`, wall-clock nanoseconds, and last_*
 * last-writer-wins gauges). The rule is by name only: every other
 * stat of any kind is digested, a histogram by its mean, count,
 * extrema and bucket counts. Values are hashed at 9 significant
 * digits so float-sum reassociation across thread counts cannot
 * perturb it: two runs with the same seed and config produce the
 * same digest at any thread count, so a figure whose manifest digest
 * matches a later re-run is known to come from identical
 * measurements.
 */

#ifndef DFAULT_OBS_MANIFEST_HH
#define DFAULT_OBS_MANIFEST_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dfault::obs {

class Registry;

/** What the caller knows about the run; the rest is collected here. */
struct ManifestInfo
{
    std::string tool;    ///< binary name, e.g. "dfault" / "fig07_wer_sweep"
    std::string command; ///< the full command line, space-joined
    std::vector<std::pair<std::string, std::string>> config;
    int threads = 1;
    std::string statsPath; ///< "" when no stats dump was written
    std::string tracePath; ///< "" when no trace export was written
    double wallSeconds = 0.0;
    /** Run ended early but drained gracefully (SIGINT/SIGTERM,
     *  deadline): artifacts are valid but partial, and a resume run
     *  (same checkpoint dir) completes the work. */
    bool interrupted = false;
    std::string interruptReason; ///< e.g. "received SIGTERM" ("" = none)
    /** Tick the serving phase was restored to from its write-ahead
     *  journal (serve/journal.hh); -1 (the default) = not a resumed
     *  run, and the field is omitted from the manifest. */
    std::int64_t resumedFromTick = -1;
};

/**
 * FNV-1a 64-bit digest over "name=value" lines of the deterministic
 * stats (see file comment). Defaults to the global registry.
 */
std::uint64_t statsDigest(const Registry *registry = nullptr);

/**
 * True when @p name is excluded from the digest as nondeterministic.
 * The only rule deciding digest membership; tools/stats_diff's
 * DEFAULT_IGNORES mirrors it.
 */
bool digestExcludes(const std::string &name);

/** Compiler / sanitizer / assertion flavor as a JSON object. */
std::string buildInfoJson();

/** The complete manifest document for @p info. */
std::string manifestJson(const ManifestInfo &info,
                         const Registry *registry = nullptr);

/**
 * Write manifestJson() to @p path. Returns false when the file cannot
 * be created.
 */
bool writeManifestFile(const std::string &path, const ManifestInfo &info,
                       const Registry *registry = nullptr);

} // namespace dfault::obs

#endif // DFAULT_OBS_MANIFEST_HH
