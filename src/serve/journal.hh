/**
 * @file
 * Tick-granular write-ahead journal for serve::PredictionService.
 *
 * The fleet service runs for days; a crashed predictor has to come
 * back without losing answered work or forgetting its view of the
 * fleet (ROADMAP item 2). Every committed tick is appended as one
 * *segment* record, periodically compacted into a full-state
 * *snapshot*, and a restore replays snapshot + segments to the exact
 * pre-crash state — same serve.* counters (via deferred stat-op
 * replay, obs/deferral.hh), same breaker phase, same last-known-good
 * cache, same response transcript. The records live in an
 * obs::RecordDir (`seg-NNNNNNNN.json` / `snap-NNNNNNNN.json`, named by
 * tick), which owns the file format, atomic writes, the config-digest
 * guard, the journal.* fault points and quarantine of invalid records
 * (obs/record_dir.hh). This module keeps the record bodies and the
 * replay policy.
 *
 * The WAL contract: work whose tick reached the journal is never
 * re-executed; work past the last durable record is lost and
 * deterministically re-executed by the resumed driver. Because the
 * service's disposition sequence is a pure function of the submission
 * sequence (serve/service.hh), a killed-and-resumed run reaches the
 * transcript and stats digest of a run that never died, bit for bit.
 *
 * Record semantics:
 *
 *  - A segment at tick T carries the *delta since the previous durable
 *    record*: requests admitted, responses committed (in commit
 *    order), the post-tick breaker state of every shard, and the
 *    serve.* counter increments as obs::StatOps. Deltas compose, so a
 *    record whose write failed outright (no file lands) simply folds
 *    into the next record; a *missing* tick number is benign.
 *  - A snapshot at tick T replaces the segment for that tick and
 *    carries absolute state: queued requests, the full transcript,
 *    breakers, the LKG cache, and the service's cumulative counter
 *    increments. Writing one retires every record at or before the
 *    *previous* snapshot (two snapshots are always retained so a torn
 *    newest snapshot can fall back).
 *  - A record that is *present but invalid* is data loss: the record
 *    directory quarantines it and replay stops at the record before
 *    it. The ticks from there on are re-served by the resumed driver,
 *    never silently replayed from later records.
 *
 * The config digest (journalConfigDigest()) covers the service tuning
 * plus a caller salt for the traffic configuration; records from a
 * different configuration are quarantined wholesale. Thread count and
 * snapshot cadence are deliberately excluded — they cannot change
 * results, so changing them must not invalidate a journal.
 */

#ifndef DFAULT_SERVE_JOURNAL_HH
#define DFAULT_SERVE_JOURNAL_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/deferral.hh"
#include "obs/record_dir.hh"
#include "serve/service.hh"

namespace dfault::serve {

/** A queued-but-unresolved request, as journaled. */
struct JournalRequest
{
    std::uint64_t id = 0;
    std::uint64_t key = 0;
    int priority = 0; ///< Priority as int
    int shard = 0;
    std::uint64_t enqueueTick = 0;
    std::vector<double> features;
};

/** Post-record circuit-breaker state of one shard, as journaled. */
struct JournalBreaker
{
    int state = 0; ///< BreakerState as int
    int consecutive = 0;
    std::string window; ///< rolling outcomes, oldest first, '1' = failure
    int windowFailures = 0;
    std::uint64_t openedTick = 0;
    int probeSuccesses = 0;
};

/** One tick's delta since the previous durable record. */
struct JournalSegment
{
    std::uint64_t tick = 0;
    std::uint64_t nextId = 0; ///< submission-id watermark after the tick
    std::vector<JournalRequest> admitted;
    std::vector<Response> responses; ///< in commit order
    std::vector<JournalBreaker> breakers;
    std::vector<obs::StatOp> statOps;
};

/** Absolute service state at one tick (a compacted snapshot). */
struct JournalSnapshot
{
    std::uint64_t tick = 0;
    std::uint64_t nextId = 0;
    std::vector<JournalRequest> queued; ///< FIFO order within each class
    std::vector<Response> responses;    ///< the full transcript so far
    std::vector<JournalBreaker> breakers;
    /** Last-known-good cache, sorted by key for a canonical encoding. */
    std::vector<std::pair<std::uint64_t, double>> lastKnownGood;
    /** serve.* increments since the service was constructed. */
    std::vector<obs::StatOp> statOps;
};

/**
 * Digest of everything that changes serving *results*: the service
 * tuning plus @p salt (the caller folds its traffic configuration in
 * — fleet_study hashes its workload and serving knobs). Excludes
 * resilience/cadence knobs (journalDir, snapshotEveryTicks, thread
 * count) exactly like sweepConfigDigest does.
 */
std::uint64_t journalConfigDigest(const Params &params);

std::string journalSegmentJson(const JournalSegment &seg,
                               std::uint64_t digest);
bool journalSegmentFromJson(const std::string &text, std::uint64_t digest,
                            JournalSegment &out,
                            std::string *error = nullptr);
std::string journalSnapshotJson(const JournalSnapshot &snap,
                                std::uint64_t digest);
bool journalSnapshotFromJson(const std::string &text, std::uint64_t digest,
                             JournalSnapshot &out,
                             std::string *error = nullptr);

/**
 * The on-disk journal. Not thread-safe; the owning service calls it
 * under its own lock from the single tick driver.
 */
class WriteAheadJournal
{
  public:
    /**
     * Bind to @p dir and pin the config @p digest every record embeds
     * (obs::RecordDir::open). @p registry receives the journal.* stats
     * (nullptr: the global registry).
     */
    void open(const std::string &dir, std::uint64_t digest,
              obs::Registry *registry = nullptr);

    bool enabled() const { return records_.enabled(); }

    /**
     * Durably append one tick record. Returns false when the write
     * fails (or journal.write fires): nothing landed, and the caller
     * keeps accumulating the delta into its next record.
     */
    bool writeSegment(const JournalSegment &seg);

    /** As writeSegment, for a compacted snapshot; also retires records
     * at or before the previous snapshot (keeping two snapshots). */
    bool writeSnapshot(const JournalSnapshot &snap);

    /** What load() recovered. */
    struct Restored
    {
        bool any = false; ///< false: nothing usable, start fresh
        std::uint64_t tick = 0; ///< last durable tick
        bool hasSnapshot = false;
        JournalSnapshot snapshot;
        /** Valid segments after the snapshot, ascending tick. */
        std::vector<JournalSegment> segments;
    };

    /**
     * Recover the newest consistent prefix: the newest valid snapshot
     * (invalid ones are quarantined and the next older tried), then
     * every valid segment after it up to — never across — the first
     * invalid record. See the file comment for why replay must stop
     * there rather than skip it.
     */
    Restored load();

  private:
    obs::RecordDir records_;
};

/**
 * Per-service journaling state (owned by PredictionService behind a
 * pointer so service.hh does not depend on this header).
 */
struct JournalState
{
    WriteAheadJournal wal;
    /** serve.* counter values at construction, before restore. */
    std::vector<std::uint64_t> base;
    /** serve.* counter values at the last durable record. */
    std::vector<std::uint64_t> durable;
    std::vector<JournalRequest> admitted; ///< enqueued since last record
    std::size_t flushedResponses = 0; ///< responses_ entries already durable
};

} // namespace dfault::serve

#endif // DFAULT_SERVE_JOURNAL_HH
