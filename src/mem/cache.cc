#include "mem/cache.hh"

#include <algorithm>
#include <bit>
#include <cstring>

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
    if (params_.ways > kMaxWays)
        DFAULT_FATAL("cache: at most ", kMaxWays, " ways, got ",
                     params_.ways);
    const std::uint64_t lines = params_.sizeBytes / params_.lineBytes;
    if (lines == 0 || lines % params_.ways != 0)
        DFAULT_FATAL("cache: size/line/ways do not divide evenly");
    sets_ = static_cast<std::uint32_t>(lines / params_.ways);
    if (!std::has_single_bit(sets_))
        DFAULT_FATAL("cache: set count must be a power of two, got ", sets_);
    lineShift_ = std::countr_zero(params_.lineBytes);
    setShift_ = std::countr_zero(sets_);
    tags_.resize(lines);
    order_.resize(lines);
    dirty_.resize(sets_);
    flush();
}

CacheAccessResult
Cache::access(Addr addr, bool is_write)
{
    const std::uint64_t line_no = addr >> lineShift_;
    const std::uint32_t set = static_cast<std::uint32_t>(line_no) &
                              (sets_ - 1);
    const std::uint64_t key = (line_no >> setShift_) + 1;
    const std::uint32_t ways = params_.ways;
    const std::size_t base = static_cast<std::size_t>(set) * ways;
    std::uint64_t *tags = &tags_[base];
    std::uint8_t *order = &order_[base];
    std::uint64_t &dirty = dirty_[set];

    if (is_write)
        ++counters_.writeAccesses;
    else
        ++counters_.readAccesses;

    // Hit path: move the way to the front of the recency order.
    for (std::uint32_t w = 0; w < ways; ++w) {
        if (tags[w] == key) {
            if (order[0] != w) {
                std::uint32_t pos = 1;
                while (order[pos] != w)
                    ++pos;
                std::memmove(order + 1, order, pos);
                order[0] = static_cast<std::uint8_t>(w);
            }
            dirty |= std::uint64_t{is_write} << w;
            return CacheAccessResult{true, std::nullopt};
        }
    }

    // Miss: the last way in recency order is the victim (the first
    // invalid way, else the LRU way; see the class comment).
    if (is_write)
        ++counters_.writeMisses;
    else
        ++counters_.readMisses;

    const std::uint32_t victim = order[ways - 1];
    std::memmove(order + 1, order, ways - 1);
    order[0] = static_cast<std::uint8_t>(victim);

    CacheAccessResult result{false, std::nullopt};
    const std::uint64_t bit = std::uint64_t{1} << victim;
    if (dirty & bit) { // invalid ways are never dirty
        ++counters_.writebacks;
        const std::uint64_t victim_line =
            ((tags[victim] - 1) << setShift_) | set;
        result.writebackAddr = victim_line << lineShift_;
    }

    tags[victim] = key;
    dirty = (dirty & ~bit) | (std::uint64_t{is_write} << victim);
    return result;
}

void
Cache::flush()
{
    std::fill(tags_.begin(), tags_.end(), 0);
    std::fill(dirty_.begin(), dirty_.end(), 0);
    // Descending way order: misses fill ways 0, 1, 2, ... in turn.
    const std::uint32_t ways = params_.ways;
    for (std::size_t i = 0; i < order_.size(); ++i)
        order_[i] = static_cast<std::uint8_t>(ways - 1 - i % ways);
}

void
Cache::resetCounters()
{
    counters_ = CacheCounters{};
}

} // namespace dfault::mem
