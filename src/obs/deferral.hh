/**
 * @file
 * Deferred (transactional) stat publication.
 *
 * A retried task must not leave half of a failed attempt's stats in
 * the registry, and a checkpointed campaign cell must be able to
 * replay its stat mutations on resume without re-running the
 * measurement. Both need the same primitive: capture a region's stat
 * updates as data instead of applying them immediately.
 *
 * Publication sites call the publish*() helpers below instead of
 * touching Registry stats directly. With no StatsDeferral active the
 * helpers apply the update immediately — identical behavior to
 * before. Inside a StatsDeferral scope the update is buffered as a
 * StatOp; the owner then either drops the buffer (failed attempt),
 * applies it (successful attempt), or serializes it into a checkpoint
 * cell and replays it on resume. Ops serialize to/from JSON with
 * round-trip-exact doubles, so a replayed campaign reaches a
 * bit-identical stats digest.
 *
 * The active deferral is thread-local: a pool worker's deferral only
 * captures stats published from that worker's task body.
 */

#ifndef DFAULT_OBS_DEFERRAL_HH
#define DFAULT_OBS_DEFERRAL_HH

#include <string>
#include <vector>

#include "obs/json.hh"

namespace dfault::obs {

class Registry;

/** One captured stat mutation. */
struct StatOp
{
    enum class Kind
    {
        CounterInc,
        GaugeAdd,
        HistRecord,
    };

    Kind kind = Kind::CounterInc;
    std::string name;
    std::string description;
    double value = 0.0; ///< increment / delta / sample
};

/**
 * RAII scope that buffers this thread's publish*() calls. Nests: the
 * innermost active deferral captures; an op is never seen twice.
 */
class StatsDeferral
{
  public:
    StatsDeferral();
    ~StatsDeferral();
    StatsDeferral(const StatsDeferral &) = delete;
    StatsDeferral &operator=(const StatsDeferral &) = delete;

    /** Move the captured ops out (the buffer is left empty). */
    std::vector<StatOp> take();

    /** True when a deferral is active on this thread. */
    static bool active();

  private:
    friend void deferralCapture(StatOp op);

    std::vector<StatOp> ops_;
    StatsDeferral *prev_;
};

/** Increment a counter, or buffer the increment under a deferral. */
void publishCounter(const std::string &name, const std::string &description,
                    std::uint64_t n = 1);

/** Accumulate into a gauge, or buffer the delta under a deferral. */
void publishGaugeAdd(const std::string &name, const std::string &description,
                     double delta);

/**
 * Record into a log-bucketed histogram (obs/histogram.hh), or buffer
 * the sample under a deferral.
 */
void publishHistogram(const std::string &name,
                      const std::string &description, double sample);

/** Apply @p ops to @p registry (default: the global registry), in order. */
void applyStatOps(const std::vector<StatOp> &ops,
                  Registry *registry = nullptr);

/** Serialize @p ops as a JSON array. */
std::string statOpsJson(const std::vector<StatOp> &ops);

/**
 * Parse a statOpsJson() array back. Returns false (and sets @p error)
 * on malformed input, including a kind tag this build does not know
 * (the retired "d" linear-distribution and "gs" gauge-set records
 * among them); @p out is untouched in that case.
 */
bool statOpsFromJson(const JsonValue &array, std::vector<StatOp> &out,
                     std::string *error = nullptr);

} // namespace dfault::obs

#endif // DFAULT_OBS_DEFERRAL_HH
