/** @file Integration tests for the closed-loop replay engine. */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/replay.hh"
#include "core/system.hh"

namespace dtsim {
namespace {

Trace
simpleTrace(std::size_t jobs, std::uint32_t records_per_job)
{
    Trace t;
    for (std::uint32_t j = 0; j < jobs; ++j) {
        for (std::uint32_t r = 0; r < records_per_job; ++r) {
            TraceRecord rec;
            rec.start = (j * 1000 + r * 4) % 100000;
            rec.count = 4;
            rec.job = j;
            t.push_back(rec);
        }
    }
    return t;
}

TEST(ReplayEngine, CompletesWholeTrace)
{
    EventQueue eq;
    SystemConfig cfg;
    cfg.disks = 2;
    DiskArray array(eq, cfg.arrayConfig());
    const Trace trace = simpleTrace(20, 3);
    ReplayEngine engine(eq, array, trace, 4);
    const Tick end = engine.run();
    EXPECT_GT(end, 0u);
    EXPECT_EQ(engine.metrics().requests, 60u);
    EXPECT_EQ(engine.metrics().jobs, 20u);
    EXPECT_EQ(engine.metrics().blocks, 240u);
    EXPECT_EQ(array.outstanding(), 0u);
}

TEST(ReplayEngine, EmptyTraceReturnsImmediately)
{
    EventQueue eq;
    SystemConfig cfg;
    DiskArray array(eq, cfg.arrayConfig());
    Trace empty;
    ReplayEngine engine(eq, array, empty, 8);
    EXPECT_EQ(engine.run(), 0u);
}

TEST(ReplayEngine, SingleStreamSerializesJobs)
{
    // With one stream the makespan is the sum of request latencies,
    // so more streams must strictly help on a multi-disk array.
    const Trace trace = simpleTrace(40, 1);

    auto run_with = [&](unsigned streams) {
        EventQueue eq;
        SystemConfig cfg;
        cfg.disks = 4;
        cfg.stripeUnitBytes = 16 * kKiB;
        DiskArray array(eq, cfg.arrayConfig());
        ReplayEngine engine(eq, array, trace, streams);
        return engine.run();
    };

    EXPECT_LT(run_with(16), run_with(1));
}

TEST(ReplayEngine, WorkerPoolLimitsInFlight)
{
    // 1 worker and 8 streams must behave like serialized issue: the
    // result equals the 1-stream makespan.
    const Trace trace = simpleTrace(30, 1);
    auto run_with = [&](unsigned streams, unsigned workers) {
        EventQueue eq;
        SystemConfig cfg;
        cfg.disks = 4;
        DiskArray array(eq, cfg.arrayConfig());
        ReplayEngine engine(eq, array, trace, streams, workers);
        return engine.run();
    };
    EXPECT_EQ(run_with(8, 1), run_with(1, 1));
}

TEST(ReplayEngine, LatencyMetricsPopulated)
{
    EventQueue eq;
    SystemConfig cfg;
    DiskArray array(eq, cfg.arrayConfig());
    const Trace trace = simpleTrace(10, 2);
    ReplayEngine engine(eq, array, trace, 4);
    engine.run();
    EXPECT_GT(engine.metrics().meanLatencyMs(), 0.0);
    EXPECT_GE(engine.metrics().maxLatency,
              engine.metrics().sumLatency /
                  engine.metrics().requests);
}

TEST(ReplayEngine, RecordEndingAtArrayCapacityCompletes)
{
    // A record the trace loader's capacity bound just accepts replays
    // without running past the array's end.
    for (bool mirrored : {false, true}) {
        EventQueue eq;
        SystemConfig cfg;
        cfg.disks = 4;
        cfg.mirrored = mirrored;
        DiskArray array(eq, cfg.arrayConfig());
        Trace trace;
        TraceRecord rec;
        rec.start = arrayAddressableBlocks(cfg) - 8;
        rec.count = 8;
        trace.push_back(rec);
        ReplayEngine engine(eq, array, trace, 1);
        engine.run();
        EXPECT_EQ(engine.metrics().requests, 1u);
        EXPECT_EQ(engine.metrics().blocks, 8u);
        EXPECT_EQ(array.outstanding(), 0u);
    }
}

TEST(ExperimentReplay, RejectsBadRecordsAtTheBoundary)
{
    // A caller-supplied trace is checked before the replay starts,
    // with loadTrace()'s wording and the bad record's index.
    SystemConfig cfg;
    cfg.disks = 4;
    Trace zero = simpleTrace(2, 2);
    zero[3].count = 0;
    EXPECT_DEATH(Experiment(cfg).replay(zero).run(),
                 "trace record 3: zero-length record");

    Trace past = simpleTrace(2, 2);
    past[2].start = arrayAddressableBlocks(cfg) - 2;
    EXPECT_DEATH(Experiment(cfg).replay(past).run(),
                 "trace record 2: record runs past the end of the "
                 "array");

    Trace wrap = simpleTrace(1, 1);
    wrap[0].start = ~ArrayBlock{0};
    EXPECT_DEATH(Experiment(cfg).replay(wrap).run(),
                 "trace record 0: record runs past the last block "
                 "number");
}

} // namespace
} // namespace dtsim
