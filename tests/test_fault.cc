/**
 * @file
 * Tests for the fault-injection subsystem: the script parsers, the
 * per-disk DiskFaults state machine (media errors, remaps, stalls,
 * backoff, seed stability), the retry/remap accounting observed
 * through a whole array, and the all-faults-off guarantees (no
 * fault.* header lines, no sim.fault group, identical timings).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "array/disk_array.hh"
#include "core/experiment.hh"
#include "fault/fault_config.hh"
#include "fault/fault_model.hh"
#include "sim/event_queue.hh"
#include "stats/dump_reader.hh"

namespace dtsim {
namespace {

// ---------------------------------------------------------------------
// Script parsers.
// ---------------------------------------------------------------------

TEST(FaultParsers, BadBlocksGood)
{
    std::vector<BadBlockSpec> specs;
    std::string err;
    ASSERT_TRUE(fault::parseBadBlocks("0:5,2:100", specs, err));
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[0].disk, 0u);
    EXPECT_EQ(specs[0].block, 5u);
    EXPECT_EQ(specs[1].disk, 2u);
    EXPECT_EQ(specs[1].block, 100u);

    ASSERT_TRUE(fault::parseBadBlocks("", specs, err));
    EXPECT_TRUE(specs.empty());
}

TEST(FaultParsers, BadBlocksMalformed)
{
    std::vector<BadBlockSpec> specs;
    std::string err;
    for (const char* bad :
         {"5", "0:", ":5", "0:5x", "a:5", "0:5,,1:2", "0:5,"}) {
        err.clear();
        EXPECT_FALSE(fault::parseBadBlocks(bad, specs, err)) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}

TEST(FaultParsers, StallWindowsGood)
{
    std::vector<StallWindow> windows;
    std::string err;
    ASSERT_TRUE(
        fault::parseStallWindows("1000:500,2000:1", windows, err));
    ASSERT_EQ(windows.size(), 2u);
    EXPECT_EQ(windows[0].start, 1000u);
    EXPECT_EQ(windows[0].duration, 500u);
    EXPECT_EQ(windows[1].start, 2000u);
    EXPECT_EQ(windows[1].duration, 1u);

    ASSERT_TRUE(fault::parseStallWindows("", windows, err));
    EXPECT_TRUE(windows.empty());
}

TEST(FaultParsers, StallWindowsMalformed)
{
    std::vector<StallWindow> windows;
    std::string err;
    for (const char* bad : {"1000", "x:5", "5:", ":5", "1:2,bad"}) {
        err.clear();
        EXPECT_FALSE(fault::parseStallWindows(bad, windows, err))
            << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}

// ---------------------------------------------------------------------
// DiskFaults: the per-disk state machine.
// ---------------------------------------------------------------------

TEST(DiskFaults, ScriptedBadBlockFailsUntilRemapped)
{
    FaultConfig cfg;
    cfg.badBlocks = "0:10";
    FaultCounters c;
    DiskFaults df(cfg, 0, c);

    // Any attempt overlapping the bad block fails, every time.
    EXPECT_TRUE(df.attemptFails(10, 1));
    EXPECT_TRUE(df.attemptFails(8, 4));
    EXPECT_FALSE(df.attemptFails(11, 2));
    EXPECT_FALSE(df.attemptFails(0, 10));

    // Remapping moves it to the spare region: attempts succeed but
    // the range now pays the permanent penalty.
    EXPECT_FALSE(df.touchesRemapped(10, 1));
    EXPECT_EQ(df.remapRange(8, 4), 1u);
    EXPECT_FALSE(df.attemptFails(10, 1));
    EXPECT_TRUE(df.touchesRemapped(10, 1));
    EXPECT_TRUE(df.touchesRemapped(8, 4));
    EXPECT_FALSE(df.touchesRemapped(11, 1));
}

TEST(DiskFaults, BadBlocksApplyOnlyToTheirDisk)
{
    FaultConfig cfg;
    cfg.badBlocks = "1:10";
    FaultCounters c;
    DiskFaults d0(cfg, 0, c);
    DiskFaults d1(cfg, 1, c);
    EXPECT_FALSE(d0.attemptFails(10, 1));
    EXPECT_TRUE(d1.attemptFails(10, 1));
}

TEST(DiskFaults, ProbabilisticRemapBlamesFirstBlock)
{
    FaultConfig cfg;          // No scripted bad blocks.
    FaultCounters c;
    DiskFaults df(cfg, 0, c);
    EXPECT_EQ(df.remapRange(40, 8), 1u);
    EXPECT_TRUE(df.touchesRemapped(40, 1));
    EXPECT_FALSE(df.touchesRemapped(41, 7));
}

TEST(DiskFaults, MediaErrorStreamIsSeedStable)
{
    FaultConfig cfg;
    cfg.mediaErrorRate = 0.3;
    cfg.seed = 42;

    auto sequence = [](const FaultConfig& fc, unsigned disk) {
        FaultCounters c;
        DiskFaults df(fc, disk, c);
        std::string s;
        for (int i = 0; i < 200; ++i)
            s += df.attemptFails(0, 1) ? '1' : '0';
        return s;
    };

    // Same seed + disk: identical decisions. Different disk or seed:
    // an independent stream.
    EXPECT_EQ(sequence(cfg, 0), sequence(cfg, 0));
    EXPECT_NE(sequence(cfg, 0), sequence(cfg, 1));
    FaultConfig other = cfg;
    other.seed = 43;
    EXPECT_NE(sequence(cfg, 0), sequence(other, 0));
}

TEST(DiskFaults, ScriptedStallDelaysToWindowEnd)
{
    FaultConfig cfg;
    cfg.stallWindows = "1000:500";
    FaultCounters c;
    DiskFaults df(cfg, 0, c);

    EXPECT_EQ(df.dispatchDelay(999), 0u);   // Before the window.
    EXPECT_EQ(df.dispatchDelay(1000), 500u);
    EXPECT_EQ(df.dispatchDelay(1200), 300u);
    EXPECT_EQ(df.dispatchDelay(1500), 0u);  // Window already over.

    EXPECT_EQ(c.stalls, 2u);
    EXPECT_EQ(c.stallTicks, 800u);
}

TEST(DiskFaults, TimeoutBackoffDoublesUpToCap)
{
    FaultConfig cfg;
    cfg.timeoutRate = 1.0;     // Every dispatch times out.
    cfg.backoffUs = 100.0;
    cfg.backoffMaxUs = 400.0;
    FaultCounters c;
    DiskFaults df(cfg, 0, c);

    EXPECT_EQ(df.dispatchDelay(0), fromMicros(100.0));
    EXPECT_EQ(df.dispatchDelay(0), fromMicros(200.0));
    EXPECT_EQ(df.dispatchDelay(0), fromMicros(400.0));
    EXPECT_EQ(df.dispatchDelay(0), fromMicros(400.0));
    EXPECT_EQ(c.stalls, 4u);
    EXPECT_EQ(c.stallTicks, fromMicros(1100.0));
}

TEST(DiskFaults, CleanDispatchResetsBackoff)
{
    // With no probabilistic timeouts the backoff path is never
    // entered and the delay is always zero -- the faults-off fast
    // path a controller relies on.
    FaultConfig cfg;
    FaultCounters c;
    DiskFaults df(cfg, 0, c);
    for (Tick t = 0; t < 10; ++t)
        EXPECT_EQ(df.dispatchDelay(t * 1000), 0u);
    EXPECT_EQ(c.stalls, 0u);
}

// ---------------------------------------------------------------------
// Array-level accounting: retries, remaps, stalls.
// ---------------------------------------------------------------------

struct FaultRig
{
    EventQueue eq;
    ArrayConfig cfg;
    std::unique_ptr<DiskArray> array;

    explicit FaultRig(const FaultConfig& fault)
    {
        cfg.disks = 1;
        cfg.fault = fault;
        array = std::make_unique<DiskArray>(eq, cfg);
    }

    void
    doRequest(ArrayBlock start, std::uint64_t count, bool write)
    {
        ArrayRequest req;
        req.start = start;
        req.count = count;
        req.isWrite = write;
        array->submit(std::move(req));
        eq.run();
    }
};

TEST(FaultArray, RetryThenRemapAccounting)
{
    FaultConfig fault;
    fault.badBlocks = "0:0";   // Logical block 0 -> disk 0, block 0.
    fault.maxRetries = 2;
    FaultRig r(fault);

    // A persistent bad block burns the whole retry budget: the
    // initial attempt plus maxRetries retries all fail, then the
    // block is remapped.
    r.doRequest(0, 1, true);
    FaultCounters c = r.array->faultCounters();
    EXPECT_EQ(c.mediaErrors, 3u);
    EXPECT_EQ(c.retries, 2u);
    EXPECT_GT(c.retryTicks, 0u);
    EXPECT_EQ(c.remapEvents, 1u);
    EXPECT_EQ(c.remappedBlocks, 1u);
    EXPECT_EQ(c.remappedAccesses, 0u);

    // Later accesses succeed but pay the permanent remap penalty.
    r.doRequest(0, 1, true);
    c = r.array->faultCounters();
    EXPECT_EQ(c.mediaErrors, 3u);
    EXPECT_EQ(c.retries, 2u);
    EXPECT_EQ(c.remapEvents, 1u);
    EXPECT_EQ(c.remappedAccesses, 1u);
}

TEST(FaultArray, ScriptedStallChargesDispatch)
{
    FaultConfig fault;
    fault.stallWindows = "0:100000";   // Stalled from tick 0.
    FaultRig r(fault);

    r.doRequest(0, 1, false);
    const FaultCounters c = r.array->faultCounters();
    EXPECT_GE(c.stalls, 1u);
    EXPECT_GT(c.stallTicks, 0u);
    EXPECT_EQ(c.mediaErrors, 0u);
}

TEST(FaultArray, FaultsOffKeepsCountersZero)
{
    FaultConfig fault;   // Default: everything off.
    FaultRig r(fault);
    EXPECT_FALSE(r.array->faultsEnabled());
    r.doRequest(0, 8, false);
    EXPECT_FALSE(r.array->faultCounters().any());
}

TEST(FaultArray, EveryDiskWritesTheArrayCounters)
{
    // One bad block on each of two disks: both disks' retries and
    // remaps land in the one array-wide counter set.
    EventQueue eq;
    ArrayConfig cfg;
    cfg.disks = 2;
    cfg.fault.badBlocks = "0:0,1:0";
    cfg.fault.maxRetries = 1;
    DiskArray array(eq, cfg);
    const ArrayBlock on_disk1 = array.striping().toLogical(1, 0);
    for (ArrayBlock lb : {ArrayBlock{0}, on_disk1}) {
        ArrayRequest req;
        req.start = lb;
        req.count = 1;
        array.submit(std::move(req));
        eq.run();
    }
    const FaultCounters c = array.faultCounters();
    EXPECT_EQ(c.mediaErrors, 4u);
    EXPECT_EQ(c.retries, 2u);
    EXPECT_EQ(c.remapEvents, 2u);
    EXPECT_EQ(c.remappedBlocks, 2u);

    // The stall counters of every DiskFaults are the model's counters.
    FaultConfig stall;
    stall.stallWindows = "0:1000";
    FaultModel model(stall, 3);
    for (unsigned d = 0; d < 3; ++d)
        EXPECT_EQ(model.disk(d).dispatchDelay(400), 600u);
    EXPECT_EQ(model.counters().stalls, 3u);
    EXPECT_EQ(model.counters().stallTicks, 1800u);
}

// ---------------------------------------------------------------------
// End-to-end: headers, stats dumps, and the faults-off fast path.
// ---------------------------------------------------------------------

SimulationConfig
smallSim()
{
    SimulationConfig sim;
    sim.synthetic.numRequests = 300;
    sim.synthetic.numFiles = 2000;
    sim.synthetic.seed = 7;
    sim.system.seed = 7;
    return sim;
}

std::pair<std::string, RunResult>
runToString(const SimulationConfig& sim)
{
    Experiment exp(sim);
    std::ostringstream stats;
    exp.statsTo(StatsSink::stream(stats));
    const RunResult r = exp.run();
    return {stats.str(), r};
}

TEST(FaultEndToEnd, FaultsOffLeavesNoTraceInDump)
{
    const auto [dump, r] = runToString(smallSim());
    EXPECT_EQ(dump.find("#conf fault."), std::string::npos);
    EXPECT_EQ(dump.find("sim.fault."), std::string::npos);
    EXPECT_FALSE(r.faults.any());
}

TEST(FaultEndToEnd, FaultsOnStampHeaderAndStats)
{
    SimulationConfig sim = smallSim();
    sim.system.fault.mediaErrorRate = 0.02;
    const auto [dump, r] = runToString(sim);
    EXPECT_NE(dump.find("#conf fault.media_error_rate"),
              std::string::npos);
    EXPECT_NE(dump.find("sim.fault.mediaErrors"), std::string::npos);
    EXPECT_GT(r.faults.mediaErrors, 0u);
    EXPECT_GT(r.faults.retries, 0u);
}

TEST(FaultEndToEnd, InertFaultConfigDoesNotPerturbTiming)
{
    // A fault scenario that never fires (a stall window far past the
    // end of the run) must yield the exact timings of a faults-off
    // run: enabling the subsystem costs nothing but the bookkeeping.
    const auto [dump_off, off] = runToString(smallSim());

    SimulationConfig sim = smallSim();
    sim.system.fault.stallWindows = "99000000000000:1";
    const auto [dump_on, on] = runToString(sim);

    EXPECT_EQ(on.ioTime, off.ioTime);
    EXPECT_EQ(on.flushTime, off.flushTime);
    EXPECT_EQ(on.requests, off.requests);
    EXPECT_EQ(on.blocks, off.blocks);
    EXPECT_EQ(on.agg.reads, off.agg.reads);
    EXPECT_EQ(on.agg.writes, off.agg.writes);
    EXPECT_FALSE(on.faults.any());

    // The enabled run documents the scenario in its header.
    EXPECT_NE(dump_on.find("#conf fault.stall_windows"),
              std::string::npos);
    EXPECT_EQ(dump_off.find("#conf fault."), std::string::npos);
}

TEST(FaultEndToEnd, FaultRunsAreSeedReproducible)
{
    SimulationConfig sim = smallSim();
    sim.system.fault.mediaErrorRate = 0.02;
    sim.system.fault.timeoutRate = 0.01;
    const auto [dump1, r1] = runToString(sim);
    const auto [dump2, r2] = runToString(sim);
    EXPECT_EQ(stats::stripVolatile(dump1), stats::stripVolatile(dump2));
    EXPECT_EQ(r1.ioTime, r2.ioTime);
    EXPECT_EQ(r1.faults.mediaErrors, r2.faults.mediaErrors);
    EXPECT_EQ(r1.faults.stalls, r2.faults.stalls);
}

} // namespace
} // namespace dtsim
