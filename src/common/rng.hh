/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic components of the simulator draw from Rng so that every
 * experiment is reproducible from a single master seed. The generator is
 * xoshiro256** seeded through SplitMix64, which is fast, high quality and
 * trivially forkable: child streams derived with fork() are statistically
 * independent of the parent.
 */

#ifndef DFAULT_COMMON_RNG_HH
#define DFAULT_COMMON_RNG_HH

#include <array>
#include <cmath>
#include <cstdint>
#include <string_view>

namespace dfault {

/** SplitMix64 step; used for seeding and cheap hashing. */
constexpr std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Stateless 64-bit mix of two values; used to derive per-object seeds. */
constexpr std::uint64_t
hashCombine(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t s = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
    return splitMix64(s);
}

/** FNV-1a 64-bit offset basis. */
constexpr std::uint64_t kFnvOffset64 = 1469598103934665603ULL;

/**
 * FNV-1a 64-bit hash of @p bytes folded into @p basis. Chain calls by
 * passing the previous result as the basis; used for config digests,
 * fault-schedule keys and manifest stats digests.
 */
constexpr std::uint64_t
fnv1a64(std::string_view bytes, std::uint64_t basis = kFnvOffset64)
{
    constexpr std::uint64_t kPrime = 1099511628211ULL;
    for (const char c : bytes) {
        basis ^= static_cast<unsigned char>(c);
        basis *= kPrime;
    }
    return basis;
}

/**
 * xoshiro256** pseudo-random generator with distribution helpers.
 *
 * Not thread safe; fork() independent streams for concurrent use.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL);

    /** UniformRandomBitGenerator interface. */
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }
    result_type operator()() { return next(); }

    /** Next raw 64-bit draw. */
    std::uint64_t next();

    /** Derive an independent child stream keyed by @p key. */
    Rng fork(std::uint64_t key);

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). @pre n > 0. */
    std::uint64_t uniformInt(std::uint64_t n);

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Standard normal draw (Box-Muller with caching). */
    double normal();

    /** Normal draw with given mean and standard deviation. */
    double normal(double mean, double sigma);

    /** Lognormal draw: exp(N(mu, sigma)). */
    double lognormal(double mu, double sigma);

    /** Exponential draw with given rate lambda. @pre lambda > 0. */
    double exponential(double lambda);

    /**
     * Poisson draw with given mean.
     *
     * Uses Knuth's method for small means and a normal approximation
     * (clamped at zero) for large means; adequate for expected-count
     * sampling in the error integrator.
     */
    std::uint64_t poisson(double mean);

    /** Bernoulli trial with success probability p (clamped to [0,1]). */
    bool bernoulli(double p);

  private:
    std::array<std::uint64_t, 4> state_;
    double cachedNormal_ = 0.0;
    bool hasCachedNormal_ = false;

    static constexpr std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }
};

inline std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);

    return result;
}

inline double
Rng::uniform()
{
    // 53 random mantissa bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

} // namespace dfault

#endif // DFAULT_COMMON_RNG_HH
