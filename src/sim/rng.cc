#include "sim/rng.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace dtsim {

namespace {

std::uint64_t
splitMix64(std::uint64_t& x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto& s : s_)
        s = splitMix64(x);
}

std::uint64_t
Rng::next64()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;

    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);

    return result;
}

double
Rng::uniform()
{
    // 53 random mantissa bits -> double in [0, 1).
    return static_cast<double>(next64() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::below(std::uint64_t n)
{
    assert(n > 0);
    // Rejection sampling to avoid modulo bias: reject the lowest
    // (2^64 mod n) values so the remaining range is a multiple of n.
    const std::uint64_t threshold = (std::uint64_t(0) - n) % n;
    std::uint64_t v;
    do {
        v = next64();
    } while (v < threshold);
    return v % n;
}

std::int64_t
Rng::range(std::int64_t lo, std::int64_t hi)
{
    assert(lo <= hi);
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(below(span));
}

bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

double
Rng::exponential(double mean)
{
    assert(mean > 0.0);
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -mean * std::log(u);
}

double
Rng::gaussian()
{
    if (haveSpare_) {
        haveSpare_ = false;
        return spare_;
    }
    double u1;
    do {
        u1 = uniform();
    } while (u1 <= 1e-300);
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    spare_ = r * std::sin(theta);
    haveSpare_ = true;
    return r * std::cos(theta);
}

double
Rng::logNormalMean(double mean, double sigma)
{
    assert(mean > 0.0);
    // Choose mu so that E[X] = exp(mu + sigma^2/2) equals `mean`.
    const double mu = std::log(mean) - 0.5 * sigma * sigma;
    return std::exp(mu + sigma * gaussian());
}

ZipfSampler::ZipfSampler(std::size_t n, double alpha)
    : alpha_(alpha)
{
    if (n == 0)
        throw std::invalid_argument("ZipfSampler: n must be >= 1");
    if (n >= kExact)
        throw std::invalid_argument("ZipfSampler: n must be below 2^31");
    if (alpha < 0.0)
        throw std::invalid_argument("ZipfSampler: alpha must be >= 0");

    cdf_.resize(n);
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        acc += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
        cdf_[i] = acc;
    }
    const double total = acc;
    for (auto& c : cdf_)
        c /= total;
    cdf_.back() = 1.0;

    const auto edge = [n](std::size_t j) {
        return static_cast<double>(j) / static_cast<double>(n);
    };
    guide_.resize(n);
    std::uint32_t i = 0;
    for (std::size_t j = 0; j < n; ++j) {
        while (cdf_[i] < edge(j))
            ++i;
        guide_[j] = i;
    }
    // A draw u that indexOf puts in bucket j, floor(u * n) == j with
    // u * n rounded by at most half an ulp, lies in [edge(j - 1),
    // edge(j + 2)) for any n below 2^31: the same one-bucket slack the
    // scans in indexOf absorb. So when guide_[j - 1] is already g
    // (cdf_[g - 1] < edge(j - 1) <= u) and cdf_[g] >= edge(j + 2) > u
    // (so guide_[j + 1] is g too), every draw in bucket j answers g.
    for (std::size_t j = 1; j + 1 < n; ++j) {
        const std::uint32_t g = guide_[j];
        if ((guide_[j - 1] & ~kExact) == g && cdf_[g] >= edge(j + 2))
            guide_[j] |= kExact;
    }
}

std::size_t
ZipfSampler::indexOf(double u) const
{
    assert(u >= 0.0 && u <= 1.0);
    const std::size_t n = cdf_.size();
    const std::size_t bucket = std::min(
        static_cast<std::size_t>(u * static_cast<double>(n)), n - 1);
    const std::uint32_t entry = guide_[bucket];
    if (entry & kExact)
        return entry & ~kExact;
    std::size_t i = entry;
    // The guide is only a starting point: rounding in u * n can land
    // a draw one bucket off, so step back while the previous entry
    // still covers u, then forward to the first entry >= u. Both
    // scans together return the first i with cdf_[i] >= u from any
    // start, and cdf_.back() == 1.0 bounds the forward scan.
    while (i > 0 && cdf_[i - 1] >= u)
        --i;
    while (cdf_[i] < u)
        ++i;
    return i;
}

double
ZipfSampler::pmf(std::size_t i) const
{
    assert(i < cdf_.size());
    return i == 0 ? cdf_[0] : cdf_[i] - cdf_[i - 1];
}

double
ZipfSampler::topMass(std::size_t k) const
{
    if (k == 0)
        return 0.0;
    if (k >= cdf_.size())
        return 1.0;
    return cdf_[k - 1];
}

} // namespace dtsim
