#include "common/rng.hh"

#include "common/logging.hh"

namespace dfault {

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto &word : state_)
        word = splitMix64(s);
}

Rng
Rng::fork(std::uint64_t key)
{
    return Rng(hashCombine(next(), key));
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t n)
{
    DFAULT_ASSERT(n > 0, "uniformInt range must be positive");
    // Rejection sampling to remove modulo bias.
    const std::uint64_t threshold = (~0ULL - n + 1) % n;
    for (;;) {
        const std::uint64_t r = next();
        if (r >= threshold)
            return r % n;
    }
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    DFAULT_ASSERT(lo <= hi, "uniformInt bounds inverted");
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(uniformInt(span));
}

double
Rng::normal()
{
    if (hasCachedNormal_) {
        hasCachedNormal_ = false;
        return cachedNormal_;
    }
    // Box-Muller transform.
    double u1 = 0.0;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cachedNormal_ = r * std::sin(theta);
    hasCachedNormal_ = true;
    return r * std::cos(theta);
}

double
Rng::normal(double mean, double sigma)
{
    return mean + sigma * normal();
}

double
Rng::lognormal(double mu, double sigma)
{
    return std::exp(normal(mu, sigma));
}

double
Rng::exponential(double lambda)
{
    DFAULT_ASSERT(lambda > 0.0, "exponential rate must be positive");
    double u = 0.0;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -std::log(u) / lambda;
}

std::uint64_t
Rng::poisson(double mean)
{
    if (mean <= 0.0)
        return 0;
    if (mean < 30.0) {
        // Knuth: multiply uniforms until below exp(-mean).
        const double limit = std::exp(-mean);
        std::uint64_t k = 0;
        double p = 1.0;
        do {
            ++k;
            p *= uniform();
        } while (p > limit);
        return k - 1;
    }
    // Normal approximation with continuity correction.
    const double draw = normal(mean, std::sqrt(mean)) + 0.5;
    return draw <= 0.0 ? 0 : static_cast<std::uint64_t>(draw);
}

bool
Rng::bernoulli(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

} // namespace dfault
