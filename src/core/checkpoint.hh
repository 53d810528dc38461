/**
 * @file
 * Sweep checkpoint journal.
 *
 * A characterization sweep with a checkpoint directory journals every
 * completed (workload, operating point) cell as one record
 * (`cell-NNNNNN.json`) of an obs::RecordDir, which owns the file
 * format, atomic writes, the config-digest guard and quarantine of
 * invalid records (obs/record_dir.hh). On resume the journal is
 * loaded, valid cells are skipped, and their *deferred stat ops*
 * (obs/deferral.hh) are replayed in cell order — the resumed run
 * reaches a stats digest bit-identical to an uninterrupted one.
 *
 * The config digest hashes all campaign parameters that define the
 * results (workload params, integrator params, thermal flag, suite,
 * operating points) and deliberately excludes the thread count: a
 * sweep may be resumed with a different DFAULT_THREADS and still
 * verify. Cells are independent, so an invalid one costs only its own
 * re-measurement.
 */

#ifndef DFAULT_CORE_CHECKPOINT_HH
#define DFAULT_CORE_CHECKPOINT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/characterization.hh"
#include "obs/deferral.hh"
#include "obs/record_dir.hh"

namespace dfault::core {

/** Hash of every campaign parameter that determines sweep results. */
std::uint64_t
sweepConfigDigest(const CharacterizationCampaign::Params &params,
                  const std::vector<workloads::WorkloadConfig> &suite,
                  const std::vector<dram::OperatingPoint> &points);

/** One journaled sweep cell: the measurement plus its stat mutations. */
struct CheckpointCell
{
    std::size_t cell = 0; ///< index into the suite x points grid
    Measurement measurement; ///< profile pointer not persisted
    std::vector<obs::StatOp> statOps;
};

/** Serialize a cell as one record document for the sweep @p digest. */
std::string checkpointCellJson(const CheckpointCell &cell,
                               std::uint64_t digest);

/**
 * Parse a checkpointCellJson() document. Returns false and sets
 * @p error when the document is malformed, is not a cell record, or
 * carries a digest other than @p digest.
 */
bool checkpointCellFromJson(const std::string &text, std::uint64_t digest,
                            CheckpointCell &out, std::string *error);

/** See file comment. */
class CheckpointJournal
{
  public:
    /**
     * Bind to @p dir for a sweep whose config hashes to @p digest
     * (obs::RecordDir::open: fatal when the directory cannot be
     * created). @p registry receives the journal.* stats.
     */
    void open(const std::string &dir, std::uint64_t digest,
              obs::Registry *registry = nullptr);

    bool enabled() const { return records_.enabled(); }

    /**
     * Load every valid cell with index < @p totalCells. Invalid files
     * are quarantined; out-of-range ones are warned about and skipped.
     */
    std::map<std::size_t, CheckpointCell> load(std::size_t totalCells) const;

    /**
     * Durably journal one completed cell. Returns false (after a
     * warning) when the write fails; the sweep carries on — a lost
     * journal entry only costs re-measurement on resume.
     */
    bool store(const CheckpointCell &cell) const;

  private:
    obs::RecordDir records_;
};

} // namespace dfault::core

#endif // DFAULT_CORE_CHECKPOINT_HH
