/**
 * @file
 * The config round-trip property: every stats dump begins with an
 * effective-config header, and loading that dump back through the
 * config layer reproduces the run bit for bit -- same stats text,
 * same results. Exercised for a Segm baseline and a FOR+HDC system,
 * the two extremes of the paper's comparison.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "config/config_file.hh"
#include "core/experiment.hh"
#include "stats/dump_reader.hh"

using namespace dtsim;

namespace {

/** A small, fast synthetic workload configuration. */
SimulationConfig
smallBase()
{
    SimulationConfig sim;
    sim.synthetic.numRequests = 400;
    sim.synthetic.numFiles = 5000;
    sim.synthetic.seed = 99;
    sim.system.seed = 99;
    return sim;
}

/** Run `sim` and return (stats dump text, result). */
std::pair<std::string, RunResult>
runToString(const SimulationConfig& sim)
{
    Experiment exp(sim);
    std::ostringstream stats;
    exp.statsTo(StatsSink::stream(stats));
    const RunResult r = exp.run();
    return {stats.str(), r};
}

/** Dump -> reload -> rerun must reproduce the dump byte for byte. */
void
expectRoundTrip(const SimulationConfig& sim)
{
    const auto [dump, result] = runToString(sim);

    // The dump is self-describing: it opens with #conf lines.
    ASSERT_NE(dump.find("#conf workload.kind = "), std::string::npos);

    // Reload the dump itself (embedded mode) into a fresh config.
    SimulationConfig reloaded;
    config::ParamRegistry reg;
    bindParams(reg, reloaded);
    std::string err;
    ASSERT_TRUE(config::loadConfigText(dump, "dump", reg, err))
        << err;

    const auto [dump2, result2] = runToString(reloaded);
    EXPECT_EQ(stats::stripVolatile(dump), stats::stripVolatile(dump2));
    EXPECT_EQ(result.ioTime, result2.ioTime);
    EXPECT_EQ(result.flushTime, result2.flushTime);
    EXPECT_EQ(result.requests, result2.requests);
    EXPECT_EQ(result.blocks, result2.blocks);
    EXPECT_EQ(result.agg.reads, result2.agg.reads);
    EXPECT_EQ(result.agg.writes, result2.agg.writes);
}

TEST(ConfigRoundTrip, SegmBaseline)
{
    expectRoundTrip(smallBase());
}

TEST(ConfigRoundTrip, ForWithHdc)
{
    SimulationConfig sim = smallBase();
    sim.system.kind = SystemKind::FOR;
    sim.system.hdc.budgetBytesPerDisk = 512 * kKiB;
    sim.synthetic.writeProb = 0.1;
    expectRoundTrip(sim);
}

TEST(ConfigRoundTrip, NonDefaultEverything)
{
    // Push non-default values through several groups at once so any
    // parameter missing from the registry dump breaks the trip.
    SimulationConfig sim = smallBase();
    sim.system.kind = SystemKind::Block;
    sim.system.disks = 4;
    sim.system.stripeUnitBytes = 32 * kKiB;
    sim.system.scheduler = SchedulerKind::SSTF;
    sim.system.streams = 16;
    sim.system.hdc.budgetBytesPerDisk = 256 * kKiB;
    sim.system.hdc.policy = HdcPolicy::Off;
    sim.synthetic.zipfAlpha = 0.7;
    sim.synthetic.writeProb = 0.25;
    sim.synthetic.fragmentation = 0.3;
    expectRoundTrip(sim);
}

TEST(ConfigRoundTrip, OnlineHdc)
{
    // Every hdc.* knob off its default: the group must survive a
    // dump/reload and the legacy aliases must agree.
    SimulationConfig sim = smallBase();
    sim.system.hdc.policy = HdcPolicy::Online;
    sim.system.hdc.budgetBytesPerDisk = 384 * kKiB;
    sim.system.hdc.replanIntervalTicks = 50 * kMsec;
    sim.system.hdc.sketchRows = 3;
    sim.system.hdc.sketchCols = 8192;
    sim.system.hdc.candidateBlocks = 4096;
    sim.system.hdc.churnThreshold = 0.25;
    expectRoundTrip(sim);
}

TEST(ConfigRoundTrip, LegacyHdcAliasesTrackSpec)
{
    // The deprecated system.hdc_* keys are bound to the same fields
    // as hdc.*: setting through the old names must land in the spec.
    SimulationConfig sim;
    config::ParamRegistry reg;
    bindParams(reg, sim);
    std::string err;
    ASSERT_TRUE(reg.set("system.hdc_bytes_per_disk", "1048576", err))
        << err;
    ASSERT_TRUE(reg.set("system.hdc_policy", "off", err)) << err;
    EXPECT_EQ(sim.system.hdc.budgetBytesPerDisk, kMiB);
    EXPECT_EQ(sim.system.hdc.policy, HdcPolicy::Off);
    ASSERT_TRUE(reg.set("system.hdc_policy", "online", err)) << err;
    EXPECT_EQ(sim.system.hdc.policy, HdcPolicy::Online);

    ASSERT_TRUE(reg.set("hdc.policy", "online", err)) << err;
    EXPECT_EQ(sim.system.hdc.policy, HdcPolicy::Online);
    // "pinned" remains accepted as the oracle's legacy spelling.
    ASSERT_TRUE(reg.set("hdc.policy", "pinned", err)) << err;
    EXPECT_EQ(sim.system.hdc.policy, HdcPolicy::Oracle);
}

TEST(ConfigRoundTrip, HeaderMatchesEffectiveStreams)
{
    // An unset system.streams resolves to the server model's own
    // concurrency; the dumped header must record the concurrency that
    // actually ran so a reload does not depend on resolving it again.
    SimulationConfig sim;
    sim.workload = WorkloadKind::Web;
    sim.scale = 0.005;
    Experiment exp(sim);
    std::ostringstream stats;
    exp.statsTo(StatsSink::stream(stats));
    exp.prepare();
    EXPECT_NE(exp.config().system.streams, 128u);
    EXPECT_NE(
        exp.runOptions().configHeader.find(
            "#conf system.streams = " +
            config::formatValue(exp.config().system.streams)),
        std::string::npos);
}

TEST(ConfigRoundTrip, ExplicitStreamsBeatServerModel)
{
    // An explicit system.streams wins over the web model's own 16
    // streams, both in the header and in the run.
    SimulationConfig sim;
    sim.workload = WorkloadKind::Web;
    sim.scale = 0.005;
    config::ParamRegistry reg;
    bindParams(reg, sim);
    std::string err;
    ASSERT_TRUE(reg.set("system.streams", "8", err)) << err;
    std::ostringstream stats;
    Experiment(sim).statsTo(StatsSink::stream(stats)).run();
    const std::string dump = stats.str();
    EXPECT_NE(dump.find("#conf system.streams = 8\n"), std::string::npos);
    EXPECT_NE(dump.find("\nsim.config.streams 8 "), std::string::npos);
}

TEST(ConfigRoundTrip, ReplayedOnlineHdc)
{
    // A replayed trace's dump carries no workload, but its header must
    // still carry every hdc.* knob, or the reload re-plans on the
    // defaults' schedule.
    SimulationConfig sim = smallBase();
    Experiment gen(sim);
    const Trace& trace = gen.trace();

    sim.system.hdc.policy = HdcPolicy::Online;
    sim.system.hdc.budgetBytesPerDisk = kMiB;
    sim.system.hdc.sketchRows = 2;
    sim.system.hdc.replanIntervalTicks = 5 * kMsec;
    std::ostringstream first;
    Experiment(sim).replay(trace).statsTo(StatsSink::stream(first)).run();
    const std::string dump = first.str();
    ASSERT_NE(dump.find("#conf hdc.sketch_rows = 2\n"), std::string::npos)
        << dump;

    SimulationConfig reloaded;
    config::ParamRegistry reg;
    bindParams(reg, reloaded);
    std::string err;
    ASSERT_TRUE(config::loadConfigText(dump, "dump", reg, err)) << err;
    std::ostringstream second;
    Experiment(reloaded)
        .replay(trace)
        .statsTo(StatsSink::stream(second))
        .run();
    EXPECT_EQ(stats::stripVolatile(dump),
              stats::stripVolatile(second.str()));
}

} // namespace
