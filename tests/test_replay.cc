/** @file Integration tests for the closed-loop replay engine. */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "experiment_replay.hh"
#include "core/replay.hh"
#include "core/system.hh"
#include "sim/rng.hh"
#include "stats/dump_reader.hh"

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

/**
 * A trace of `records` records whose jobs are runs of 1..max_run
 * adjacent records; each run takes an id from [0, ids) that differs
 * from the previous run's, so with few ids an id recurs
 * non-adjacently and counts as a new job each time.
 */
Trace
recurringJobTrace(std::uint64_t seed, std::size_t records,
                  std::uint32_t ids, std::uint32_t max_run)
{
    Rng rng(seed);
    Trace t;
    while (t.size() < records) {
        std::uint32_t id = static_cast<std::uint32_t>(rng.below(ids));
        if (!t.empty() && id == t.back().job)
            id = (id + 1) % ids;
        const std::uint64_t run = 1 + rng.below(max_run);
        for (std::uint64_t r = 0; r < run && t.size() < records; ++r) {
            TraceRecord rec;
            rec.start = rng.below(200000);
            rec.count = static_cast<std::uint32_t>(1 + rng.below(8));
            rec.isWrite = rng.below(4) == 0;
            rec.job = id;
            t.push_back(rec);
        }
    }
    return t;
}

/** What a replay did: completion order and times, and its counters. */
struct ReplayOutcome
{
    std::uint64_t digest = 0;  ///< FNV-1a of (record, completion tick).
    std::uint64_t jobs = 0;
    std::uint64_t requests = 0;
    Tick end = 0;
};

ReplayOutcome
replayOutcome(const Trace& trace, unsigned streams, unsigned workers)
{
    EventQueue eq;
    SystemConfig cfg;
    cfg.disks = 2;
    cfg.stripeUnitBytes = 16 * kKiB;
    DiskArray array(eq, cfg.arrayConfig());
    ReplayEngine engine(eq, array, trace, streams, workers);
    std::uint64_t h = stats::kFnv1aBasis;
    const auto mix = [&h](std::uint64_t v) {
        char bytes[8];
        for (int b = 0; b < 8; ++b)
            bytes[b] = static_cast<char>(v >> (8 * b));
        h = stats::fnv1a({bytes, sizeof bytes}, h);
    };
    engine.setObserver([&](const TraceRecord& rec, Tick when) {
        mix(static_cast<std::uint64_t>(&rec - trace.data()));
        mix(when);
    });
    ReplayOutcome out;
    out.end = engine.run();
    out.digest = h;
    out.jobs = engine.metrics().jobs;
    out.requests = engine.metrics().requests;
    return out;
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

/** Jobs as adjacent runs of equal ids, counted independently. */
std::uint64_t
adjacentRuns(const Trace& t)
{
    std::uint64_t runs = 0;
    for (std::size_t i = 0; i < t.size(); ++i)
        runs += i == 0 || t[i].job != t[i - 1].job;
    return runs;
}

TEST(ReplayEngine, JobBoundariesMatchPrecomputedRanges)
{
    // Completion order, times and counters captured from the engine
    // that precomputed every job range before replay; finding the
    // boundaries as jobs are claimed must not change any of them.
    struct Case
    {
        std::uint64_t seed;
        std::size_t records;
        std::uint32_t ids, maxRun;
        unsigned streams, workers;
        std::uint64_t jobs;
        Tick end;
        std::uint64_t digest;
    };
    const Case cases[] = {
        // An id recurs non-adjacently: each recurrence is a new job.
        {1, 400, 3, 4, 4, 2, 154, 2175022860, 0x7198e50c47ac569cULL},
        // Single-record jobs, more streams than workers needed.
        {2, 300, 2, 1, 8, 0, 300, 1497550830, 0x1bc4233b74d039d6ULL},
        {3, 500, 50, 6, 16, 4, 141, 2457347978, 0x0837ce86bda8cc3aULL},
        // Empty trace: nothing completes.
        {4, 0, 3, 4, 4, 2, 0, 0, 0xcbf29ce484222325ULL},
    };
    for (const Case& c : cases) {
        const Trace t =
            recurringJobTrace(c.seed, c.records, c.ids, c.maxRun);
        const ReplayOutcome o = replayOutcome(t, c.streams, c.workers);
        EXPECT_EQ(o.jobs, adjacentRuns(t)) << "seed " << c.seed;
        EXPECT_EQ(o.jobs, c.jobs) << "seed " << c.seed;
        EXPECT_EQ(o.requests, c.records) << "seed " << c.seed;
        EXPECT_EQ(o.end, c.end) << "seed " << c.seed;
        EXPECT_EQ(o.digest, c.digest) << "seed " << c.seed;
    }
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
    EXPECT_DEATH(Experiment(test::withSystem(cfg)).replay(zero).run(),
                 "trace record 3: zero-length record");

    Trace past = simpleTrace(2, 2);
    past[2].start = arrayAddressableBlocks(cfg) - 2;
    EXPECT_DEATH(Experiment(test::withSystem(cfg)).replay(past).run(),
                 "trace record 2: record runs past the end of the "
                 "array");

    Trace wrap = simpleTrace(1, 1);
    wrap[0].start = ~ArrayBlock{0};
    EXPECT_DEATH(Experiment(test::withSystem(cfg)).replay(wrap).run(),
                 "trace record 0: record runs past the last block "
                 "number");
}

} // namespace
} // namespace dtsim
