/**
 * @file
 * Checked-parser tests: every malformed value class the registry must
 * reject (trailing junk, overflow, signs on unsigned fields, unknown
 * enum tokens) and the formatValue/parseValue round-trip guarantees.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "config/parse.hh"
#include "config/sim_config.hh"

using namespace dtsim;
using namespace dtsim::config;

namespace {

template <typename T>
testing::AssertionResult
rejects(const std::string& text)
{
    T out{};
    std::string err;
    if (parseValue(text, out, err))
        return testing::AssertionFailure()
               << "'" << text << "' parsed to " << formatValue(out);
    if (err.empty())
        return testing::AssertionFailure()
               << "'" << text << "' rejected without a reason";
    return testing::AssertionSuccess() << err;
}

template <typename T>
T
accepts(const std::string& text)
{
    T out{};
    std::string err;
    EXPECT_TRUE(parseValue(text, out, err)) << text << ": " << err;
    return out;
}

TEST(ConfigParse, U64Accepts)
{
    EXPECT_EQ(accepts<std::uint64_t>("0"), 0u);
    EXPECT_EQ(accepts<std::uint64_t>("131072"), 131072u);
    EXPECT_EQ(accepts<std::uint64_t>("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
    // Base prefixes are accepted (strtoull base 0).
    EXPECT_EQ(accepts<std::uint64_t>("0x20000"), 131072u);
}

TEST(ConfigParse, U64Rejects)
{
    EXPECT_TRUE(rejects<std::uint64_t>(""));
    EXPECT_TRUE(rejects<std::uint64_t>("abc"));
    EXPECT_TRUE(rejects<std::uint64_t>("12abc"));
    EXPECT_TRUE(rejects<std::uint64_t>("12 34"));
    EXPECT_TRUE(rejects<std::uint64_t>("-1"));
    EXPECT_TRUE(rejects<std::uint64_t>("12.5"));
    // One past uint64 max.
    EXPECT_TRUE(rejects<std::uint64_t>("18446744073709551616"));
    EXPECT_TRUE(rejects<std::uint64_t>(" 12"));
    // A leading zero is refused, not read as octal.
    EXPECT_TRUE(rejects<std::uint64_t>("010"));
    EXPECT_TRUE(rejects<std::uint64_t>("09"));
}

TEST(ConfigParse, U64LeadingZeroHasItsOwnMessage)
{
    // "09" is not "trailing junk" after a 0, and a sign does not get
    // an octal reading past the check.
    for (const char* text : {"010", "09", "+010", "007"}) {
        std::uint64_t out = 0;
        std::string err;
        EXPECT_FALSE(parseValue(text, out, err)) << text;
        EXPECT_EQ(err.find("leading zero in '" + std::string(text) + "'"),
                  0u)
            << err;
    }
    EXPECT_EQ(accepts<std::uint64_t>("+10"), 10u);
    EXPECT_EQ(accepts<std::uint64_t>("0x10"), 16u);
    EXPECT_EQ(accepts<unsigned>("0"), 0u);
    EXPECT_TRUE(rejects<unsigned>("010"));
}

TEST(ConfigParse, U32Rejects)
{
    EXPECT_EQ(accepts<unsigned>("4294967295"), 4294967295u);
    // Fits in u64 but not u32: must be a range error, not silent
    // truncation.
    EXPECT_TRUE(rejects<unsigned>("4294967296"));
    EXPECT_TRUE(rejects<unsigned>("-1"));
    EXPECT_TRUE(rejects<unsigned>("8x"));
}

TEST(ConfigParse, DoubleAcceptsAndRejects)
{
    EXPECT_DOUBLE_EQ(accepts<double>("0.05"), 0.05);
    EXPECT_DOUBLE_EQ(accepts<double>("-2.5e-3"), -2.5e-3);
    EXPECT_TRUE(rejects<double>(""));
    EXPECT_TRUE(rejects<double>("0.05x"));
    EXPECT_TRUE(rejects<double>("zero"));
    EXPECT_TRUE(rejects<double>("1e999"));
    EXPECT_TRUE(rejects<double>("nan"));
    EXPECT_TRUE(rejects<double>("inf"));
}

TEST(ConfigParse, BoolTokens)
{
    EXPECT_TRUE(accepts<bool>("true"));
    EXPECT_TRUE(accepts<bool>("1"));
    EXPECT_TRUE(accepts<bool>("on"));
    EXPECT_TRUE(accepts<bool>("yes"));
    EXPECT_FALSE(accepts<bool>("false"));
    EXPECT_FALSE(accepts<bool>("0"));
    EXPECT_FALSE(accepts<bool>("off"));
    EXPECT_FALSE(accepts<bool>("no"));
    EXPECT_TRUE(rejects<bool>("maybe"));
    EXPECT_TRUE(rejects<bool>("TRUE"));
    EXPECT_TRUE(rejects<bool>(""));
}

TEST(ConfigParse, DoubleFormatRoundTrips)
{
    // Shortest round-trip formatting: parse(format(v)) == v exactly,
    // and common values stay human-readable.
    const double values[] = {0.0,  0.05, 0.87, 1.0 / 3.0,
                             21.5, 1e-9, 123456789.123456789};
    for (double v : values) {
        double back = 0.0;
        std::string err;
        ASSERT_TRUE(parseValue(formatValue(v), back, err))
            << formatValue(v);
        EXPECT_EQ(back, v) << formatValue(v);
    }
    EXPECT_EQ(formatValue(0.05), "0.05");
    EXPECT_EQ(formatValue(1.0), "1");
}

TEST(ConfigParse, EnumTableParseAndFormat)
{
    const EnumTable<SystemKind>& t = systemKindTokens();
    SystemKind k = SystemKind::Segm;
    std::string err;
    ASSERT_TRUE(t.parse("for", k, err));
    EXPECT_EQ(k, SystemKind::FOR);
    EXPECT_EQ(t.format(SystemKind::NoRA), "nora");
    EXPECT_FALSE(t.parse("FOR", k, err));
    EXPECT_NE(err.find("segm|block|nora|for"), std::string::npos);
}

TEST(ConfigParse, RegistryUnknownKeyAndBadValue)
{
    SimulationConfig sim;
    ParamRegistry reg;
    bindParams(reg, sim);

    std::string err;
    EXPECT_FALSE(reg.set("system.no_such_param", "1", err));
    EXPECT_NE(err.find("unknown parameter"), std::string::npos);
    EXPECT_NE(err.find("system.no_such_param"), std::string::npos);

    err.clear();
    EXPECT_FALSE(reg.set("system.disks", "eight", err));
    EXPECT_NE(err.find("system.disks"), std::string::npos);

    // A failed set leaves the bound field untouched.
    EXPECT_EQ(sim.system.disks, 8u);

    ASSERT_TRUE(reg.set("system.disks", "4", err)) << err;
    EXPECT_EQ(sim.system.disks, 4u);
    EXPECT_EQ(reg.get("system.disks"), "4");
}

TEST(ConfigParse, RegistryCoversEveryGroup)
{
    SimulationConfig sim;
    ParamRegistry reg;
    bindParams(reg, sim);

    const char* expected[] = {
        "workload.kind",      "workload.scale",
        "system.kind",        "system.stripe_unit_bytes",
        "disk.cache_bytes",   "disk.rpm",
        "synthetic.requests", "run.stats_out",
    };
    for (const char* name : expected)
        EXPECT_TRUE(reg.has(name)) << name;
    EXPECT_GE(reg.entries().size(), 40u);
}

} // namespace
