#include "mem/cache.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace dfault::mem {

double
CacheCounters::missRatio() const
{
    const std::uint64_t total = accesses();
    if (total == 0)
        return 0.0;
    return static_cast<double>(misses()) / static_cast<double>(total);
}

Cache::Cache(const Params &params) : params_(params)
{
    if (params_.lineBytes == 0 || !std::has_single_bit(params_.lineBytes))
        DFAULT_FATAL("cache: lineBytes must be a power of two");
    if (params_.ways == 0)
        DFAULT_FATAL("cache: ways must be positive");
    const std::uint64_t lines = params_.sizeBytes / params_.lineBytes;
    if (lines == 0 || lines % params_.ways != 0)
        DFAULT_FATAL("cache: size/line/ways do not divide evenly");
    sets_ = static_cast<std::uint32_t>(lines / params_.ways);
    if (!std::has_single_bit(sets_))
        DFAULT_FATAL("cache: set count must be a power of two, got ", sets_);
    lineShift_ = std::countr_zero(params_.lineBytes);
    setShift_ = std::countr_zero(sets_);
    tags_.resize(lines);
    stamps_.resize(lines);
    dirty_.resize(lines);
}

CacheAccessResult
Cache::access(Addr addr, bool is_write)
{
    const std::uint64_t line_no = addr >> lineShift_;
    const std::uint32_t set = static_cast<std::uint32_t>(line_no) &
                              (sets_ - 1);
    const std::uint64_t key = (line_no >> setShift_) + 1;
    const std::size_t base = static_cast<std::size_t>(set) * params_.ways;
    std::uint64_t *tags = &tags_[base];
    std::uint64_t *stamps = &stamps_[base];
    std::uint8_t *dirty = &dirty_[base];

    if (is_write)
        ++counters_.writeAccesses;
    else
        ++counters_.readAccesses;

    ++lruClock_;

    // Hit path.
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
        if (tags[w] == key) {
            stamps[w] = lruClock_;
            dirty[w] |= static_cast<std::uint8_t>(is_write);
            return CacheAccessResult{true, std::nullopt};
        }
    }

    // Miss: pick the first invalid way, else the LRU victim.
    if (is_write)
        ++counters_.writeMisses;
    else
        ++counters_.readMisses;

    std::uint32_t victim = 0;
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
        if (tags[w] == 0) {
            victim = w;
            break;
        }
        if (stamps[w] < stamps[victim])
            victim = w;
    }

    CacheAccessResult result{false, std::nullopt};
    if (tags[victim] != 0 && dirty[victim]) {
        ++counters_.writebacks;
        const std::uint64_t victim_line =
            ((tags[victim] - 1) << setShift_) | set;
        result.writebackAddr = victim_line << lineShift_;
    }

    tags[victim] = key;
    stamps[victim] = lruClock_;
    dirty[victim] = static_cast<std::uint8_t>(is_write);
    return result;
}

void
Cache::flush()
{
    std::fill(tags_.begin(), tags_.end(), 0);
    std::fill(stamps_.begin(), stamps_.end(), 0);
    std::fill(dirty_.begin(), dirty_.end(), 0);
    lruClock_ = 0;
}

void
Cache::resetCounters()
{
    counters_ = CacheCounters{};
}

} // namespace dfault::mem
