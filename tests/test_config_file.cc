/**
 * @file
 * Config-file loader tests: plain key=value mode, comment and blank
 * handling, precise file:line errors, and the embedded "#conf" mode
 * that makes stats dumps and traces reloadable.
 */

#include <gtest/gtest.h>

#include "config/config_file.hh"
#include "config/sim_config.hh"
#include "temp_path.hh"

using namespace dtsim;
using namespace dtsim::config;

namespace {

struct Bound
{
    SimulationConfig sim;
    ParamRegistry reg;
    Bound() { bindParams(reg, sim); }
};

TEST(SplitAssignment, SplitsAndTrims)
{
    std::string key, value, err;
    ASSERT_TRUE(splitAssignment("  system.disks =  4 ", key, value,
                                err));
    EXPECT_EQ(key, "system.disks");
    EXPECT_EQ(value, "4");

    ASSERT_TRUE(splitAssignment("a=b", key, value, err));
    EXPECT_EQ(key, "a");
    EXPECT_EQ(value, "b");

    EXPECT_FALSE(splitAssignment("no equals here", key, value, err));
    EXPECT_FALSE(splitAssignment("= value", key, value, err));
}

TEST(ConfigFile, PlainModeAppliesAssignments)
{
    Bound b;
    std::string err;
    ASSERT_TRUE(loadConfigText("# a figure config\n"
                               "\n"
                               "workload.kind = web\n"
                               "system.kind = for\n"
                               "system.stripe_unit_bytes = 16384\n"
                               "   system.disks = 4   \n",
                               "test.conf", b.reg, err))
        << err;
    EXPECT_EQ(b.sim.workload, WorkloadKind::Web);
    EXPECT_EQ(b.sim.system.kind, SystemKind::FOR);
    EXPECT_EQ(b.sim.system.stripeUnitBytes, 16384u);
    EXPECT_EQ(b.sim.system.disks, 4u);
}

TEST(ConfigFile, ErrorsCarryFileAndLine)
{
    Bound b;
    std::string err;
    EXPECT_FALSE(loadConfigText("workload.kind = web\n"
                                "system.disks = four\n",
                                "bad.conf", b.reg, err));
    EXPECT_NE(err.find("bad.conf:2:"), std::string::npos) << err;
    EXPECT_NE(err.find("system.disks"), std::string::npos) << err;

    err.clear();
    EXPECT_FALSE(loadConfigText("nonsense line\n", "bad.conf", b.reg,
                                err));
    EXPECT_NE(err.find("bad.conf:1:"), std::string::npos) << err;

    err.clear();
    EXPECT_FALSE(loadConfigText("no.such.key = 1\n", "bad.conf",
                                b.reg, err));
    EXPECT_NE(err.find("unknown parameter"), std::string::npos)
        << err;
}

TEST(ConfigFile, RemovedRaKeysRejected)
{
    // A config written for the removed ra.* group must fail at its
    // line, not run with the fixed read-ahead budget unnoticed.
    for (const char* key :
         {"ra.adaptive", "ra.min_blocks", "ra.max_blocks",
          "ra.window_blocks", "ra.low_accuracy", "ra.high_accuracy"}) {
        Bound b;
        std::string err;
        const std::string text = std::string("system.kind = for\n") +
                                 key + " = 1\n";
        EXPECT_FALSE(loadConfigText(text, "old.conf", b.reg, err))
            << key;
        EXPECT_NE(err.find("old.conf:2:"), std::string::npos) << err;
        EXPECT_NE(err.find("unknown parameter"), std::string::npos)
            << err;
    }

    // The same holds for the header of a dump from an adaptive run.
    Bound b;
    std::string err;
    EXPECT_FALSE(loadConfigText("# dtsim effective config\n"
                                "#conf system.kind = for\n"
                                "#conf ra.adaptive = true\n"
                                "# end of effective config\n",
                                "old_dump.txt", b.reg, err));
    EXPECT_NE(err.find("old_dump.txt:3:"), std::string::npos) << err;
}

TEST(ConfigFile, EmbeddedModeParsesOnlyConfLines)
{
    // A stats-dump-shaped file: header lines, stats lines, and JSONL
    // records. Only the "#conf" lines must be interpreted.
    Bound b;
    std::string err;
    ASSERT_TRUE(loadConfigText(
                    "# dtsim effective config\n"
                    "#conf system.kind = nora\n"
                    "#conf system.disks = 2\n"
                    "# end of effective config\n"
                    "sim.media.reads 1234 # stats line, not config\n"
                    "{\"t\":5,\"disk\":0}\n"
                    "would be = a parse error in plain mode\n",
                    "dump.txt", b.reg, err))
        << err;
    EXPECT_EQ(b.sim.system.kind, SystemKind::NoRA);
    EXPECT_EQ(b.sim.system.disks, 2u);
    // Untouched keys keep their defaults (0 streams: the workload's
    // own concurrency).
    EXPECT_EQ(b.sim.system.streams, 0u);
}

TEST(ConfigFile, RenderedHeaderReloadsIdentically)
{
    // The round trip at the registry level: render a header from a
    // customized config, load it into a fresh one, and compare every
    // parameter's canonical value.
    Bound src;
    std::string err;
    ASSERT_TRUE(src.reg.set("workload.kind", "proxy", err)) << err;
    ASSERT_TRUE(src.reg.set("workload.scale", "0.013", err)) << err;
    ASSERT_TRUE(src.reg.set("system.kind", "for", err)) << err;
    ASSERT_TRUE(src.reg.set("system.hdc_bytes_per_disk", "2097152",
                            err))
        << err;
    ASSERT_TRUE(src.reg.set("disk.seek_alpha_ms", "1.55", err)) << err;
    ASSERT_TRUE(src.reg.set("run.stats_out", test::tempPath("stats.txt"), err))
        << err;

    const std::string header = renderConfigHeader(src.sim);

    Bound dst;
    ASSERT_TRUE(
        loadConfigText(header, "header", dst.reg, err))
        << err;
    for (const ParamEntry& e : src.reg.entries())
        EXPECT_EQ(dst.reg.get(e.name), e.get()) << e.name;
}

TEST(ConfigFile, MissingFileFails)
{
    Bound b;
    std::string err;
    EXPECT_FALSE(loadConfigFile("/nonexistent/dtsim.conf", b.reg,
                                err));
    EXPECT_NE(err.find("cannot open"), std::string::npos);
}

} // namespace
