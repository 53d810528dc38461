/**
 * @file
 * Workload execution context: the in-order core model workloads run on.
 *
 * The X-Gene2 in the paper is only a load generator and a performance-
 * counter source; accordingly the core model does cycle accounting, not
 * microarchitectural simulation. Each logical thread owns a core-like
 * counter set; loads and stores pass through the instrumentation bus
 * (DynamoRIO stand-in) and the cache hierarchy, and their latency is
 * charged to the issuing thread with a memory-level-parallelism
 * discount. Compute and branch instructions advance the cycle count
 * without touching memory.
 */

#ifndef DFAULT_SYS_EXECUTION_HH
#define DFAULT_SYS_EXECUTION_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/units.hh"
#include "mem/hierarchy.hh"
#include "trace/access.hh"

namespace dfault::sys {

/** Per-thread (per-core) activity counters. */
struct CoreStats
{
    Cycles cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t intOps = 0;
    std::uint64_t fpOps = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches = 0;
    std::uint64_t branchMisses = 0;
    Cycles waitCycles = 0; ///< cycles stalled waiting for memory

    std::uint64_t memInstructions() const { return loads + stores; }
};

/**
 * Execution interface handed to workloads.
 *
 * Threads are logical: calls for different threads may be interleaved
 * arbitrarily by the workload; each thread's cycle clock advances
 * independently and the run's wall time is the maximum over threads.
 */
class ExecutionContext
{
  public:
    struct Params
    {
        int threads = 8;
        double clockHz = 2.4e9;        ///< X-Gene2 core clock
        double memoryLevelParallelism = 4.0;
        Cycles branchMissPenalty = 14;
        /**
         * Time dilation: each simulated instruction represents this many
         * real dynamic instructions (DESIGN.md §4). Workloads execute a
         * 1/dilation sample of the real instruction stream; all
         * wall-clock conversions (wallSeconds, reuse times, row access
         * rates) multiply by this factor so that second-scale quantities
         * like Treuse match the paper's regime without simulating 1e11
         * instructions.
         */
        double timeDilation = 200.0;
    };

    ExecutionContext(mem::MemoryHierarchy &hierarchy,
                     trace::InstrumentationBus &bus, const Params &params);
    ExecutionContext(mem::MemoryHierarchy &hierarchy,
                     trace::InstrumentationBus &bus);

    /** Number of logical threads configured for this run. */
    int threads() const { return params_.threads; }

    /**
     * Reserve @p bytes of simulated memory (64-byte aligned bump
     * allocation). fatal() when DRAM capacity is exhausted.
     */
    Addr allocate(std::uint64_t bytes);

    /** Bytes allocated so far (the workload footprint, MEMSIZE). */
    std::uint64_t footprintBytes() const { return brk_; }

    /**
     * Execute one load on @p thread and return the 64-bit word stored
     * at the (8-byte aligned-down) address. Memory is zero-initialized.
     */
    std::uint64_t load(int thread, Addr addr);

    /** Execute one store of @p value on @p thread. */
    void store(int thread, Addr addr, std::uint64_t value);

    /** Read simulated memory without executing an access (debug/tests). */
    std::uint64_t peek(Addr addr) const;

    /** Execute @p ops integer ALU instructions on @p thread. */
    void compute(int thread, std::uint64_t ops);

    /** Execute @p ops floating-point instructions on @p thread. */
    void computeFp(int thread, std::uint64_t ops);

    /** Execute one branch; a mispredict costs branchMissPenalty. */
    void branch(int thread, bool mispredicted);

    /** Per-thread counters. */
    const CoreStats &coreStats(int thread) const;

    /** Sum of counters over all threads. */
    CoreStats totalStats() const;

    /** Wall-clock cycles: maximum cycle count over threads. */
    Cycles wallCycles() const;

    /** Wall-clock seconds of the simulated run. */
    Seconds wallSeconds() const;

    /** perf-style CPI: sum of cycles over sum of instructions. */
    double cpi() const;

    /**
     * Wall seconds per dynamic instruction across all threads; the
     * conversion factor from reuse distances to reuse time.
     */
    double wallSecondsPerInstruction() const;

    /** Global dynamic instruction counter (across threads). */
    std::uint64_t globalInstructions() const { return globalInstr_; }

    /**
     * Publish this run's counters into the observability registry
     * (obs::Registry::instance()): per-thread counters accumulate under
     * "platform.core.<t>.*", aggregates under "platform.exec.*". Called
     * once per profiled run; the hot paths stay uninstrumented.
     */
    void publishStats() const;

    const Params &params() const { return params_; }
    mem::MemoryHierarchy &hierarchy() { return hierarchy_; }

  private:
    mem::MemoryHierarchy &hierarchy_;
    trace::InstrumentationBus &bus_;
    Params params_;
    std::vector<CoreStats> cores_;
    std::vector<std::uint64_t> backing_; ///< simulated memory contents
    Addr brk_ = 0;
    std::uint64_t globalInstr_ = 0;

    void memoryAccess(int thread, Addr addr, bool is_write,
                      std::uint64_t value);
    CoreStats &core(int thread);
};

// The per-access path is defined here so workloads inline it.

inline CoreStats &
ExecutionContext::core(int thread)
{
    DFAULT_ASSERT(thread >= 0 && thread < params_.threads,
                  "thread id out of range");
    return cores_[thread];
}

inline void
ExecutionContext::memoryAccess(int thread, Addr addr, bool is_write,
                               std::uint64_t value)
{
    CoreStats &c = core(thread);

    bus_.publish(trace::AccessEvent{thread, addr, is_write, value,
                                    globalInstr_});
    ++globalInstr_;
    ++c.instructions;
    if (is_write)
        ++c.stores;
    else
        ++c.loads;

    const int core_id = thread % hierarchy_.cores();
    const Cycles latency =
        hierarchy_.access(core_id, addr, is_write, c.cycles);

    // One issue cycle plus the exposed (MLP-discounted) stall.
    const auto stall = static_cast<Cycles>(
        static_cast<double>(latency > 1 ? latency - 1 : 0) /
        params_.memoryLevelParallelism);
    c.cycles += 1 + stall;
    c.waitCycles += stall;
}

inline std::uint64_t
ExecutionContext::load(int thread, Addr addr)
{
    memoryAccess(thread, addr, /*is_write=*/false, 0);
    return peek(addr);
}

inline void
ExecutionContext::store(int thread, Addr addr, std::uint64_t value)
{
    memoryAccess(thread, addr, /*is_write=*/true, value);
    const std::uint64_t word = addr / units::bytesPerWord;
    DFAULT_ASSERT(word < backing_.size(), "store beyond allocated memory");
    backing_[word] = value;
}

inline std::uint64_t
ExecutionContext::peek(Addr addr) const
{
    const std::uint64_t word = addr / units::bytesPerWord;
    DFAULT_ASSERT(word < backing_.size(), "load beyond allocated memory");
    return backing_[word];
}

} // namespace dfault::sys

#endif // DFAULT_SYS_EXECUTION_HH
