/**
 * @file
 * Set-associative cache model with LRU replacement.
 *
 * The cache hierarchy decides which program accesses reach DRAM: a hit
 * implies no DRAM activity (no implicit refresh, no interference), a
 * miss triggers a line fill and possibly a dirty writeback. The paper's
 * feature set includes L1/L2 access and miss rates, which this model
 * exports.
 */

#ifndef DFAULT_MEM_CACHE_HH
#define DFAULT_MEM_CACHE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/units.hh"

namespace dfault::mem {

/** Result of one cache access. */
struct CacheAccessResult
{
    bool hit = false;
    /** Address of the evicted dirty line, if any. */
    std::optional<Addr> writebackAddr;
};

/** Aggregate cache counters (exported as program features). */
struct CacheCounters
{
    std::uint64_t readAccesses = 0;
    std::uint64_t writeAccesses = 0;
    std::uint64_t readMisses = 0;
    std::uint64_t writeMisses = 0;
    std::uint64_t writebacks = 0;

    std::uint64_t accesses() const { return readAccesses + writeAccesses; }
    std::uint64_t misses() const { return readMisses + writeMisses; }
    double missRatio() const;
};

/**
 * Write-back, write-allocate set-associative cache with true-LRU
 * replacement per set (at most kMaxWays ways).
 *
 * Each set keeps its ways in recency order, most recent first, so the
 * replacement victim is always the last entry of that order: flush()
 * lays the ways out in descending index order, so while a set fills the
 * last entry is its first invalid way, and once it is full the last
 * entry is its least recently used way.
 */
class Cache
{
  public:
    struct Params
    {
        std::uint64_t sizeBytes = 32 * 1024;
        std::uint32_t lineBytes = 64;
        std::uint32_t ways = 8;
        Cycles hitLatency = 2;
    };

    /** Upper bound on Params::ways: a set's dirty bits are one word. */
    static constexpr std::uint32_t kMaxWays = 64;

    explicit Cache(const Params &params);

    const Params &params() const { return params_; }
    const CacheCounters &counters() const { return counters_; }

    /**
     * Look up @p addr; on a miss the line is installed (write-allocate)
     * and the LRU victim evicted.
     */
    CacheAccessResult access(Addr addr, bool is_write);

    /** Invalidate everything and clear dirty state (not the counters). */
    void flush();

    /** Reset counters only. */
    void resetCounters();

    std::uint32_t sets() const { return sets_; }

  private:
    Params params_;
    std::uint32_t sets_;
    int lineShift_;
    int setShift_; ///< log2(sets_): line number -> tag
    // Set-major, sets_ * ways entries each.
    std::vector<std::uint64_t> tags_; ///< tag + 1; 0 = invalid way
    std::vector<std::uint8_t> order_; ///< way indices, most recent first
    std::vector<std::uint64_t> dirty_; ///< per set, bit w = way w dirty
    CacheCounters counters_;
};

} // namespace dfault::mem

#endif // DFAULT_MEM_CACHE_HH
