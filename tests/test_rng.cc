/** @file Unit and property tests for the RNG and Zipf sampler. */

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "sim/rng.hh"

namespace dtsim {
namespace {

TEST(Rng, DeterministicFromSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next64() == b.next64();
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(7);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(9);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(r.below(7), 7u);
}

TEST(Rng, BelowCoversRange)
{
    Rng r(11);
    std::vector<int> seen(5, 0);
    for (int i = 0; i < 5000; ++i)
        ++seen[r.below(5)];
    for (int count : seen)
        EXPECT_GT(count, 800);
}

TEST(Rng, RangeInclusive)
{
    Rng r(13);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = r.range(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(17);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng r(19);
    int hits = 0;
    for (int i = 0; i < 50000; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits / 50000.0, 0.3, 0.01);
}

TEST(Rng, ExponentialMean)
{
    Rng r(23);
    double sum = 0.0;
    for (int i = 0; i < 50000; ++i)
        sum += r.exponential(4.0);
    EXPECT_NEAR(sum / 50000.0, 4.0, 0.1);
}

TEST(Rng, GaussianMoments)
{
    Rng r(29);
    double sum = 0.0, sq = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double g = r.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, LogNormalMeanMatches)
{
    Rng r(31);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += r.logNormalMean(100.0, 1.0);
    EXPECT_NEAR(sum / n, 100.0, 5.0);
}

TEST(ZipfSampler, RejectsBadArguments)
{
    EXPECT_THROW(ZipfSampler(0, 0.5), std::invalid_argument);
    EXPECT_THROW(ZipfSampler(10, -0.1), std::invalid_argument);
    // Guide entries are 32-bit with a flag bit; rejected before any
    // table is allocated.
    EXPECT_THROW(ZipfSampler(std::size_t{1} << 31, 1.0),
                 std::invalid_argument);
}

TEST(ZipfSampler, PmfSumsToOne)
{
    ZipfSampler z(1000, 0.7);
    double sum = 0.0;
    for (std::size_t i = 0; i < z.size(); ++i)
        sum += z.pmf(i);
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfSampler, AlphaZeroIsUniform)
{
    ZipfSampler z(100, 0.0);
    for (std::size_t i = 0; i < 100; ++i)
        EXPECT_NEAR(z.pmf(i), 0.01, 1e-12);
}

TEST(ZipfSampler, MassDecreasesWithRank)
{
    ZipfSampler z(50, 0.9);
    for (std::size_t i = 1; i < 50; ++i)
        EXPECT_LE(z.pmf(i), z.pmf(i - 1) + 1e-15);
}

TEST(ZipfSampler, TopMassMonotone)
{
    ZipfSampler z(1000, 0.43);
    double prev = 0.0;
    for (std::size_t k = 1; k <= 1000; k += 37) {
        const double m = z.topMass(k);
        EXPECT_GE(m, prev);
        prev = m;
    }
    EXPECT_DOUBLE_EQ(z.topMass(1000), 1.0);
    EXPECT_DOUBLE_EQ(z.topMass(0), 0.0);
}

TEST(ZipfSampler, SampleFrequenciesFollowPmf)
{
    ZipfSampler z(10, 1.0);
    Rng r(37);
    std::vector<int> hist(10, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++hist[z.sample(r)];
    for (std::size_t i = 0; i < 10; ++i) {
        EXPECT_NEAR(hist[i] / static_cast<double>(n), z.pmf(i),
                    0.01);
    }
}

/** Property sweep: sampling is always in range for many alphas. */
class ZipfAlphaSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(ZipfAlphaSweep, SamplesInRange)
{
    ZipfSampler z(123, GetParam());
    Rng r(41);
    for (int i = 0; i < 5000; ++i)
        ASSERT_LT(z.sample(r), 123u);
}

INSTANTIATE_TEST_SUITE_P(Alphas, ZipfAlphaSweep,
                         ::testing::Values(0.0, 0.2, 0.4, 0.43, 0.6,
                                           0.8, 1.0, 1.5));

/** First i with cdf(i) >= u, by binary search over topMass. */
std::size_t
referenceIndex(const ZipfSampler& z, double u)
{
    std::size_t lo = 0;
    std::size_t hi = z.size() - 1;
    while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (z.topMass(mid + 1) < u)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

class ZipfGuideExact
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>>
{
};

TEST_P(ZipfGuideExact, MatchesBinarySearch)
{
    const auto [n, alpha] = GetParam();
    const ZipfSampler z(n, alpha);
    const auto check = [&](double u) {
        if (u < 0.0 || u > 1.0)
            return;
        ASSERT_EQ(z.indexOf(u), referenceIndex(z, u))
            << "n=" << n << " alpha=" << alpha << " u=" << u;
    };

    // Seeded uniforms, through sample() and indexOf() alike.
    Rng a(n * 7919 + 3);
    Rng b(n * 7919 + 3);
    for (int i = 0; i < 20000; ++i) {
        const double u = a.uniform();
        ASSERT_EQ(z.sample(b), referenceIndex(z, u));
        check(u);
    }

    // Exactly on (and one ulp either side of) every CDF entry and
    // every guide bucket edge j/n: the draws that a bucket answered
    // from its guide entry alone would get wrong first.
    for (std::size_t i = 0; i < n; ++i) {
        const double c = z.topMass(i + 1);
        const double edge =
            static_cast<double>(i) / static_cast<double>(n);
        for (const double u : {c, edge}) {
            check(u);
            check(std::nextafter(u, 0.0));
            check(std::nextafter(u, 2.0));
        }
    }
    check(0.0);
    check(1.0);
    check(std::nextafter(1.0, 0.0));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ZipfGuideExact,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{3}, std::size_t{17},
                                         std::size_t{1000},
                                         std::size_t{30000},
                                         std::size_t{70000}),
                       ::testing::Values(0.0, 0.55, 0.75, 0.8, 1.0,
                                         1.5)));

} // namespace
} // namespace dtsim
