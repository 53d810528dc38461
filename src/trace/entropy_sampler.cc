#include "trace/entropy_sampler.hh"

#include <new>

#include "common/logging.hh"
#include "common/rng.hh"
#include "stats/entropy.hh"

namespace dfault::trace {

EntropySampler::EntropySampler() : EntropySampler(Params{}) {}

EntropySampler::EntropySampler(const Params &params)
    : params_(params), counts_(&arena_)
{
    if (params_.stride == 0)
        DFAULT_FATAL("entropy sampler: stride must be positive");
    reservoir_.reserve(params_.reservoirSize);
}

void
EntropySampler::NodeArena::release()
{
    for (const Block &b : heap_)
        std::pmr::new_delete_resource()->deallocate(b.p, b.bytes, b.align);
    heap_.clear();
    nodes_.release();
}

void *
EntropySampler::NodeArena::do_allocate(std::size_t bytes, std::size_t align)
{
    if (bytes <= kNodeBytes)
        return nodes_.allocate(bytes, align);
    heap_.reserve(heap_.size() + 1); // so push_back cannot throw
    void *p = std::pmr::new_delete_resource()->allocate(bytes, align);
    heap_.push_back({p, bytes, align});
    return p;
}

void
EntropySampler::NodeArena::do_deallocate(void *p, std::size_t bytes,
                                         std::size_t align)
{
    if (bytes <= kNodeBytes)
        return;
    std::erase_if(heap_, [p](const Block &b) { return b.p == p; });
    std::pmr::new_delete_resource()->deallocate(p, bytes, align);
}

void
EntropySampler::onAccess(const AccessEvent &event)
{
    if (!event.isWrite)
        return;
    // Samples stores 0, stride, 2 * stride, ...
    if (skip_ != 0) {
        --skip_;
        return;
    }
    skip_ = params_.stride - 1;
    ++sampled_;

    // Histogram the two 32-bit halves (Eq. 5 is defined over 32-bit
    // words). Once the exact table is full, only update known values:
    // the tail mass is dominated by the already-seen head for every
    // workload we model, and the estimator remains a lower bound.
    const auto lo = static_cast<std::uint32_t>(event.value);
    const auto hi = static_cast<std::uint32_t>(event.value >> 32);
    for (const std::uint32_t half : {lo, hi}) {
        if (!saturated_) {
            ++counts_[half];
            ++counted_;
            if (counts_.size() >= params_.maxDistinct)
                saturated_ = true;
        } else {
            auto it = counts_.find(half);
            if (it != counts_.end()) {
                ++it->second;
                ++counted_;
            }
        }
    }

    // Deterministic reservoir of raw 64-bit words.
    ++reservoirSeen_;
    if (reservoir_.size() < params_.reservoirSize) {
        reservoir_.push_back(event.value);
    } else {
        std::uint64_t s = reservoirSeen_;
        const std::uint64_t slot = splitMix64(s) % reservoirSeen_;
        if (slot < reservoir_.size())
            reservoir_[slot] = event.value;
    }
}

double
EntropySampler::entropyBits() const
{
    return stats::shannonEntropy(counts_, counted_);
}

std::array<double, 64>
EntropySampler::bitOneProbabilities() const
{
    std::array<double, 64> p{};
    if (reservoir_.empty()) {
        p.fill(0.5);
        return p;
    }
    stats::bitOneProbabilities(reservoir_, p);
    return p;
}

void
EntropySampler::reset()
{
    skip_ = 0;
    sampled_ = 0;
    counted_ = 0;
    saturated_ = false;
    // A fresh table, not clear(): clear() keeps the grown bucket array,
    // and with it an iteration order a new sampler would not have. The
    // old table goes with the arena's memory; see counts_.
    arena_.release();
    new (&counts_) Counts(&arena_);
    reservoir_.clear();
    reservoirSeen_ = 0;
}

} // namespace dfault::trace
