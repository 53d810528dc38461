/**
 * @file
 * Shannon entropy estimators.
 *
 * The paper introduces the data-pattern entropy HDP (Eq. 5): the entropy
 * of the distribution of 32-bit values written to memory by a workload,
 * estimated from sampled write data.
 */

#ifndef DFAULT_STATS_ENTROPY_HH
#define DFAULT_STATS_ENTROPY_HH

#include <cmath>
#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>

namespace dfault::stats {

template <typename Alloc>
using CountMap =
    std::unordered_map<std::uint32_t, std::uint64_t, std::hash<std::uint32_t>,
                       std::equal_to<std::uint32_t>, Alloc>;

/**
 * Shannon entropy in bits of an empirical distribution given as
 * value -> occurrence-count, whose counts sum to @p total. Zero-count
 * entries are ignored. Terms are summed in the map's iteration order,
 * so the last bits of the result depend on its bucket layout; any
 * allocator gives the same layout.
 */
template <typename Alloc>
double
shannonEntropy(const CountMap<Alloc> &counts, std::uint64_t total)
{
    if (total == 0)
        return 0.0;
    double h = 0.0;
    const double totald = static_cast<double>(total);
    for (const auto &kv : counts) {
        if (kv.second == 0)
            continue;
        const double p = static_cast<double>(kv.second) / totald;
        h -= p * std::log2(p);
    }
    return h;
}

/** As above, summing the counts first. */
template <typename Alloc>
double
shannonEntropy(const CountMap<Alloc> &counts)
{
    std::uint64_t total = 0;
    for (const auto &kv : counts)
        total += kv.second;
    return shannonEntropy(counts, total);
}

/** Shannon entropy in bits of an explicit probability vector. */
double shannonEntropy(std::span<const double> probabilities);

/**
 * Per-bit-position probability of a 1 across a set of 64-bit words.
 *
 * Used by the data-pattern vulnerability model: a DRAM cell can only
 * manifest a retention error if the stored bit is the charged state for
 * that cell's true-/anti-cell orientation.
 *
 * @param words sampled 64-bit data words
 * @param p_one output array of 64 probabilities (bit 0 = LSB)
 */
void bitOneProbabilities(std::span<const std::uint64_t> words,
                         std::span<double> p_one);

} // namespace dfault::stats

#endif // DFAULT_STATS_ENTROPY_HH
