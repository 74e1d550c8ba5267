/**
 * @file
 * Deterministic pseudo-random number generation and the samplers used
 * throughout DTSim.
 *
 * The generator is a 64-bit SplitMix-seeded xoshiro256** instance; it is
 * small, fast, and fully reproducible from a single 64-bit seed, which
 * keeps every experiment in the paper reproduction deterministic.
 */

#ifndef DTSIM_SIM_RNG_HH
#define DTSIM_SIM_RNG_HH

#include <cstdint>
#include <vector>

namespace dtsim {

/**
 * Deterministic 64-bit PRNG (xoshiro256**) with convenience samplers.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed; the same seed replays the stream. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next64();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n); n must be > 0. */
    std::uint64_t below(std::uint64_t n);

    /** Uniform integer in [lo, hi] inclusive; requires lo <= hi. */
    std::int64_t range(std::int64_t lo, std::int64_t hi);

    /** Bernoulli trial with success probability p. */
    bool chance(double p);

    /** Exponentially distributed value with the given mean. */
    double exponential(double mean);

    /**
     * Log-normally distributed value parameterized by the desired
     * mean and sigma (shape) of the resulting distribution.
     */
    double logNormalMean(double mean, double sigma);

    /** Standard normal deviate (Box-Muller). */
    double gaussian();

  private:
    std::uint64_t s_[4];
    bool haveSpare_ = false;
    double spare_ = 0.0;
};

/**
 * Generalized (Bradford-)Zipf sampler over ranks 1..n with exponent
 * alpha: P(rank i) proportional to 1 / i^alpha.
 *
 * alpha = 0 degenerates to the uniform distribution; alpha = 1 is the
 * classic Zipf law. A full CDF table is precomputed, plus a guide
 * table holding, for each of n equal-width buckets of [0, 1), the
 * first CDF index that can answer a draw in that bucket. Sampling
 * reads the guide entry for floor(u * n) and finishes with a short
 * exact scan, so it returns exactly the index a binary search over
 * the CDF would, in O(1) expected steps for the Zipf exponents used
 * here. A bucket whose every draw has one answer, even a draw that
 * rounding moved one bucket over, is flagged in its guide entry and
 * answered without reading the CDF at all.
 */
class ZipfSampler
{
  public:
    /**
     * @param n Number of items (ranks 1..n); must be in [1, 2^31).
     * @param alpha Zipf exponent, >= 0.
     */
    ZipfSampler(std::size_t n, double alpha);

    /** Sample a 0-based item index in [0, n). */
    std::size_t sample(Rng& rng) const { return indexOf(rng.uniform()); }

    /**
     * The first 0-based index i with cdf(i) >= u: the item a uniform
     * draw `u` in [0, 1] selects.
     */
    std::size_t indexOf(double u) const;

    /** Probability mass of 0-based item i. */
    double pmf(std::size_t i) const;

    /** Accumulated probability of the top-k most popular items. */
    double topMass(std::size_t k) const;

    std::size_t size() const { return cdf_.size(); }
    double alpha() const { return alpha_; }

  private:
    std::vector<double> cdf_;

    /** Guide-entry flag: every draw in the bucket answers the index. */
    static constexpr std::uint32_t kExact = std::uint32_t{1} << 31;

    /**
     * guide_[j]: the first index i with cdf_[i] >= j / n, or'd with
     * kExact when that i answers every draw in bucket j.
     */
    std::vector<std::uint32_t> guide_;
    double alpha_;
};

} // namespace dtsim

#endif // DTSIM_SIM_RNG_HH
