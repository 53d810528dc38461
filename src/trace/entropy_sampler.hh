/**
 * @file
 * Data-pattern entropy sampling (paper §III-D, Eq. 5).
 *
 * The data-pattern entropy HDP quantifies the distribution of values a
 * workload writes to memory: HDP = -sum_i P(x_i) log2 P(x_i) over the
 * 32-bit words written. The sampler observes store data, splits each
 * 64-bit store into two 32-bit words, and maintains an occurrence
 * histogram (bounded; see maxDistinct). It also retains a bounded
 * reservoir of raw 64-bit words from which the per-bit-position one-
 * probabilities — used by the true-/anti-cell vulnerability model — are
 * derived.
 */

#ifndef DFAULT_TRACE_ENTROPY_SAMPLER_HH
#define DFAULT_TRACE_ENTROPY_SAMPLER_HH

#include <array>
#include <cstdint>
#include <memory_resource>
#include <unordered_map>
#include <vector>

#include "trace/access.hh"

namespace dfault::trace {

/** Bounded-memory estimator of HDP and per-bit write statistics. */
class EntropySampler : public AccessSink
{
  public:
    struct Params
    {
        /** Sample one of every `stride` stores. */
        std::uint64_t stride = 7;
        /** Cap on distinct 32-bit values tracked exactly. */
        std::size_t maxDistinct = 1 << 20;
        /** Size of the raw-word reservoir for bit statistics. */
        std::size_t reservoirSize = 1 << 15;
    };

    EntropySampler();
    explicit EntropySampler(const Params &params);

    /** The histogram allocates from a member arena: not copyable. */
    EntropySampler(const EntropySampler &) = delete;
    EntropySampler &operator=(const EntropySampler &) = delete;

    /** Empty on purpose: counts_ is never destroyed (see there), and
     *  arena_'s destructor frees its memory. */
    ~EntropySampler() override {}

    void onAccess(const AccessEvent &event) override;

    /** Estimated data-pattern entropy in bits (0..32). */
    double entropyBits() const;

    /** Number of stores sampled. */
    std::uint64_t sampledStores() const { return sampled_; }

    /**
     * Per-bit probability that a written 64-bit word has a 1 in each
     * position, from the reservoir. All 0.5 when nothing was sampled.
     */
    std::array<double, 64> bitOneProbabilities() const;

    /** Forget all state: behaves like a newly constructed sampler. */
    void reset();

  private:
    /**
     * Memory for the histogram. Blocks of at most kNodeBytes (the
     * map's nodes) are bump-allocated and freed all at once; larger
     * blocks (its bucket arrays) come from the heap and go back on
     * every rehash, so no stale bucket array stays resident. The arena
     * owns every block it handed out, live or not: release() frees
     * them all, which ends a map without walking its nodes.
     */
    class NodeArena final : public std::pmr::memory_resource
    {
      public:
        ~NodeArena() override { release(); }

        /** Free every block. The map using them must not be touched
         *  again, only have its storage reused. */
        void release();

      private:
        static constexpr std::size_t kNodeBytes = 64;

        struct Block
        {
            void *p;
            std::size_t bytes;
            std::size_t align;
        };

        std::pmr::monotonic_buffer_resource nodes_;
        /** Live heap blocks: one bucket array, two during a rehash. */
        std::vector<Block> heap_;

        void *do_allocate(std::size_t bytes, std::size_t align) override;
        void do_deallocate(void *p, std::size_t bytes,
                           std::size_t align) override;
        bool do_is_equal(
            const std::pmr::memory_resource &other) const noexcept override
        {
            return this == &other;
        }
    };

    Params params_;
    /** Stores to skip before the next sampled one. */
    std::uint64_t skip_ = 0;
    std::uint64_t sampled_ = 0;
    /** Sum of the histogram's counts, so HDP walks the table once. */
    std::uint64_t counted_ = 0;
    bool saturated_ = false;
    // Default hash, equality and rehash policy and no reserve(): HDP
    // sums in this map's iteration order, so its bucket layout has to
    // match a plain std::unordered_map fed the same values (the
    // golden profiles depend on it). Only the allocator differs.
    using Counts = std::pmr::unordered_map<std::uint32_t, std::uint64_t>;
    NodeArena arena_;
    // Never destroyed: its destructor would walk every node to hand it
    // back one by one. Its life ends instead when arena_ releases all
    // of its memory (in reset() and in arena_'s destructor), and the
    // union keeps the compiler from running ~Counts.
    union
    {
        Counts counts_;
    };
    std::vector<std::uint64_t> reservoir_;
    std::uint64_t reservoirSeen_ = 0;
};

} // namespace dfault::trace

#endif // DFAULT_TRACE_ENTROPY_SAMPLER_HH
