#include "stats/entropy.hh"

#include "common/logging.hh"

namespace dfault::stats {

double
shannonEntropy(std::span<const double> probabilities)
{
    double h = 0.0;
    for (const double p : probabilities) {
        if (p <= 0.0)
            continue;
        h -= p * std::log2(p);
    }
    return h;
}

void
bitOneProbabilities(std::span<const std::uint64_t> words,
                    std::span<double> p_one)
{
    DFAULT_ASSERT(p_one.size() == 64, "expected 64 output slots");
    std::fill(p_one.begin(), p_one.end(), 0.0);
    if (words.empty())
        return;
    for (const std::uint64_t w : words) {
        for (int b = 0; b < 64; ++b)
            p_one[b] += static_cast<double>((w >> b) & 1);
    }
    const double n = static_cast<double>(words.size());
    for (auto &p : p_one)
        p /= n;
}

} // namespace dfault::stats
