/**
 * @file
 * Tests for the whole-disk fault model seen end to end: the
 * faults-off guarantees (no fault.* header lines, no sim.fault group,
 * zero counters), a kill/repair script's header and stats, a kill
 * that fires after the last request leaving every timing unchanged,
 * a kill with no repair, the fault-event snapshots, the trace's
 * degraded flag, and reproducible fault runs. Array-level tests pin
 * the array-wide counters for every killed disk and the rebuild span
 * and chunking. The degraded-mode state machine itself
 * is tested in test_degraded_mirror.cc.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "array/disk_array.hh"
#include "core/experiment.hh"
#include "fault/fault_config.hh"
#include "sim/event_queue.hh"
#include "stats/dump_reader.hh"
#include "stats/trace.hh"
#include "temp_path.hh"

namespace dtsim {
namespace {

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

TEST(FaultArray, FaultsOffKeepsCountersZero)
{
    FaultConfig fault;   // Default: everything off.
    FaultRig r(fault);
    EXPECT_FALSE(r.array->faultsEnabled());
    r.doRequest(0, 8, false);
    EXPECT_FALSE(r.array->faultCounters().any());
}

/** A 4-disk mirrored array (logical disks 0, 1; mirrors 2, 3) on
 * 4 MiB drives, small enough to rebuild a whole disk. */
std::unique_ptr<DiskArray>
mirroredArray(EventQueue& eq, const FaultConfig& fault)
{
    ArrayConfig cfg;
    cfg.disks = 4;
    cfg.stripeUnitBytes = 32 * kKiB;
    cfg.mirrored = true;
    cfg.disk.capacityBytes = 4 * kMiB;
    cfg.fault = fault;
    return std::make_unique<DiskArray>(eq, cfg);
}

TEST(FaultArray, EveryDiskWritesTheArrayCounters)
{
    // Whichever disk dies, its degraded I/O and both halves of its
    // rebuild (the partner's reads, its own write-backs) land in the
    // one array-wide FaultCounters.
    for (unsigned d = 0; d < 4; ++d) {
        SCOPED_TRACE("killed disk " + std::to_string(d));
        FaultConfig fault;
        fault.killAtTicks = 1;
        fault.killDisk = d;
        fault.repairAtTicks = 1000;
        fault.rebuildBlocks = 32;
        fault.rebuildChunkBlocks = 16;
        EventQueue eq;
        std::unique_ptr<DiskArray> array = mirroredArray(eq, fault);

        // At the kill, read and write the first stripe unit of the
        // dead disk's logical disk: both reach only the partner.
        const ArrayBlock unit = 32 * kKiB / 4096;
        array->setFaultEventHook(
            [&](const char* event, unsigned, Tick) {
                if (std::string(event) != "failure")
                    return;
                for (bool write : {false, true}) {
                    ArrayRequest req;
                    req.start = (d % 2) * unit;
                    req.count = 4;
                    req.isWrite = write;
                    array->submit(std::move(req));
                }
            });
        eq.run();

        const unsigned partner = (d + 2) % 4;
        EXPECT_EQ(array->diskHealth(d), DiskHealth::Alive);
        const FaultCounters c = array->faultCounters();
        EXPECT_EQ(c.diskFailures, 1u);
        EXPECT_EQ(c.diskRepairs, 1u);
        EXPECT_EQ(c.degradedReads, 1u);
        EXPECT_EQ(c.degradedWrites, 1u);
        EXPECT_EQ(c.rebuildJobs, 4u);
        EXPECT_EQ(c.rebuildBlocks, 32u);
        EXPECT_EQ(array->controller(d).stats().reads, 0u);
        EXPECT_EQ(array->controller(d).stats().writes, 0u);
        EXPECT_EQ(array->controller(partner).stats().reads, 1u);
        EXPECT_EQ(array->controller(partner).stats().writes, 1u);
        EXPECT_EQ(array->controller(d).stats().rebuildJobs, 2u);
        EXPECT_EQ(array->controller(d).stats().rebuildBlocks, 32u);
        EXPECT_EQ(array->controller(partner).stats().rebuildJobs, 2u);
        EXPECT_EQ(array->controller(partner).stats().rebuildBlocks, 0u);
    }
}

TEST(FaultArray, RebuildLastChunkIsPartial)
{
    // 40 blocks in 16-block chunks: 16 + 16 + 8, each a read and a
    // write-back.
    FaultConfig fault;
    fault.killAtTicks = 1;
    fault.killDisk = 1;
    fault.repairAtTicks = 1000;
    fault.rebuildBlocks = 40;
    fault.rebuildChunkBlocks = 16;
    EventQueue eq;
    std::unique_ptr<DiskArray> array = mirroredArray(eq, fault);
    eq.run();

    const FaultCounters c = array->faultCounters();
    EXPECT_EQ(c.rebuildJobs, 6u);
    EXPECT_EQ(c.rebuildBlocks, 40u);
    EXPECT_EQ(array->diskHealth(1), DiskHealth::Alive);
}

TEST(FaultArray, RebuildZeroCopiesTheWholeDisk)
{
    FaultConfig fault;
    fault.killAtTicks = 1;
    fault.killDisk = 2;
    fault.repairAtTicks = 1000;
    fault.rebuildBlocks = 0;
    fault.rebuildChunkBlocks = 256;
    EventQueue eq;
    std::unique_ptr<DiskArray> array = mirroredArray(eq, fault);
    eq.run();

    // 1024 blocks on a 4 MiB drive, in four 256-block chunks.
    const FaultCounters c = array->faultCounters();
    EXPECT_EQ(c.rebuildBlocks, 1024u);
    EXPECT_EQ(c.rebuildJobs, 8u);
    EXPECT_EQ(array->diskHealth(2), DiskHealth::Alive);
}

TEST(FaultArray, RebuildSpanIsClampedToTheDisk)
{
    FaultConfig fault;
    fault.killAtTicks = 1;
    fault.killDisk = 3;
    fault.repairAtTicks = 1000;
    fault.rebuildBlocks = 5000;
    fault.rebuildChunkBlocks = 512;
    EventQueue eq;
    std::unique_ptr<DiskArray> array = mirroredArray(eq, fault);
    eq.run();

    const FaultCounters c = array->faultCounters();
    EXPECT_EQ(c.rebuildBlocks, 1024u);
    EXPECT_EQ(c.rebuildJobs, 4u);
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

/** smallSim() on a mirrored array: disk 1 dies at 1 ms and is
 * repaired at 200 ms, then 512 blocks are rebuilt. */
SimulationConfig
killRepairSim()
{
    SimulationConfig sim = smallSim();
    sim.system.mirrored = true;
    sim.system.fault.killAtTicks = 1 * kMsec;
    sim.system.fault.killDisk = 1;
    sim.system.fault.repairAtTicks = 200 * kMsec;
    sim.system.fault.rebuildBlocks = 512;
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
    const auto [dump, r] = runToString(killRepairSim());
    EXPECT_NE(dump.find("#conf fault.kill_at_ticks = 1000000"),
              std::string::npos);
    EXPECT_NE(dump.find("#conf fault.repair_at_ticks = 200000000"),
              std::string::npos);
    EXPECT_NE(dump.find("sim.fault.degradedReads"), std::string::npos);
    EXPECT_NE(dump.find("# fault event @1000000: failure disk 1"),
              std::string::npos);
    EXPECT_EQ(r.faults.diskFailures, 1u);
    EXPECT_EQ(r.faults.diskRepairs, 1u);
    EXPECT_GT(r.faults.degradedReads, 0u);
    // 512 blocks in 256-block chunks: a read and a write-back each.
    EXPECT_EQ(r.faults.rebuildJobs, 4u);
    EXPECT_EQ(r.faults.rebuildBlocks, 512u);
}

TEST(FaultEndToEnd, InertFaultConfigDoesNotPerturbTiming)
{
    // A kill scripted past the last completion fires on a drained
    // array: the run's timings equal a faults-off mirrored run's, and
    // no request was degraded.
    SimulationConfig base = smallSim();
    base.system.mirrored = true;
    const auto [dump_off, off] = runToString(base);

    SimulationConfig sim = base;
    sim.system.fault.killAtTicks = 99000000000000ULL;
    sim.system.fault.killDisk = 1;
    const auto [dump_on, on] = runToString(sim);
    ASSERT_LT(off.ioTime, sim.system.fault.killAtTicks);

    EXPECT_EQ(on.ioTime, off.ioTime);
    EXPECT_EQ(on.flushTime, off.flushTime);
    EXPECT_EQ(on.requests, off.requests);
    EXPECT_EQ(on.blocks, off.blocks);
    EXPECT_EQ(on.agg.reads, off.agg.reads);
    EXPECT_EQ(on.agg.writes, off.agg.writes);
    EXPECT_EQ(on.agg.latencySum, off.agg.latencySum);
    EXPECT_EQ(on.faults.degradedReads, 0u);
    EXPECT_EQ(on.faults.degradedWrites, 0u);
    EXPECT_EQ(on.faults.rebuildJobs, 0u);

    // The enabled run documents the scenario in its header.
    EXPECT_NE(dump_on.find("#conf fault.kill_at_ticks"),
              std::string::npos);
    EXPECT_EQ(dump_off.find("#conf fault."), std::string::npos);
}

TEST(FaultEndToEnd, KillWithoutRepairStaysDegraded)
{
    SimulationConfig sim = killRepairSim();
    sim.system.fault.repairAtTicks = 0;
    const auto [dump, r] = runToString(sim);
    EXPECT_EQ(r.faults.diskFailures, 1u);
    EXPECT_EQ(r.faults.diskRepairs, 0u);
    EXPECT_GT(r.faults.degradedReads, 0u);
    EXPECT_EQ(r.faults.rebuildJobs, 0u);
    EXPECT_EQ(r.faults.rebuildBlocks, 0u);
    EXPECT_NE(dump.find("# fault event @1000000: failure disk 1"),
              std::string::npos);
    EXPECT_EQ(dump.find(": repair disk"), std::string::npos);
    EXPECT_EQ(dump.find(": rebuilt disk"), std::string::npos);
}

TEST(FaultEndToEnd, FaultEventSnapshotsFollowTheScript)
{
    // One snapshot per event, in script order, each carrying the
    // counters as they stand at that tick.
    const auto [dump, r] = runToString(killRepairSim());
    const std::size_t fail =
        dump.find("# fault event @1000000: failure disk 1\n");
    const std::size_t repair =
        dump.find("# fault event @200000000: repair disk 1\n");
    const std::size_t rebuilt = dump.find(": rebuilt disk 1\n");
    ASSERT_NE(fail, std::string::npos);
    ASSERT_NE(repair, std::string::npos);
    ASSERT_NE(rebuilt, std::string::npos);
    EXPECT_LT(fail, repair);
    EXPECT_LT(repair, rebuilt);

    auto counterAfter = [&](std::size_t at, const std::string& name) {
        const std::size_t p = dump.find("sim.fault." + name + " ", at);
        EXPECT_NE(p, std::string::npos) << name;
        return std::stoull(dump.substr(p + 11 + name.size()));
    };
    EXPECT_EQ(counterAfter(fail, "diskFailures"), 1u);
    EXPECT_EQ(counterAfter(fail, "diskRepairs"), 0u);
    EXPECT_EQ(counterAfter(repair, "diskRepairs"), 1u);
    EXPECT_EQ(counterAfter(rebuilt, "rebuildBlocks"), 512u);
    EXPECT_EQ(counterAfter(rebuilt, "rebuildJobs"), r.faults.rebuildJobs);
}

TEST(FaultEndToEnd, TraceFlagsEveryDegradedRequest)
{
    // Each degraded read and each single-replica write reaches one
    // disk as one request marked degraded; nothing else is marked.
    SimulationConfig sim = killRepairSim();
    sim.synthetic.writeProb = 0.3;
    sim.output.trace = test::tempPath("degraded.bin");
    const auto [dump, r] = runToString(sim);
    ASSERT_GT(r.faults.degradedReads, 0u);
    ASSERT_GT(r.faults.degradedWrites, 0u);

    std::vector<RequestTraceEvent> events;
    ASSERT_TRUE(readTraceFile(sim.output.trace, events));
    std::uint64_t reads = 0, writes = 0;
    for (const RequestTraceEvent& ev : events) {
        if (!ev.degraded)
            continue;
        EXPECT_NE(ev.disk, 1u);
        ++(ev.isWrite ? writes : reads);
    }
    EXPECT_EQ(reads, r.faults.degradedReads);
    EXPECT_EQ(writes, r.faults.degradedWrites);
    std::remove(sim.output.trace.c_str());
}

TEST(FaultEndToEnd, FaultRunsAreReproducible)
{
    const SimulationConfig sim = killRepairSim();
    const auto [dump1, r1] = runToString(sim);
    const auto [dump2, r2] = runToString(sim);
    EXPECT_EQ(stats::stripVolatile(dump1), stats::stripVolatile(dump2));
    EXPECT_EQ(r1.ioTime, r2.ioTime);
    EXPECT_EQ(r1.faults.degradedReads, r2.faults.degradedReads);
    EXPECT_EQ(r1.faults.rebuildBlocks, r2.faults.rebuildBlocks);
}

} // namespace
} // namespace dtsim
