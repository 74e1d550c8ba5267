/** @file End-to-end tests of request tracing and the stats wiring. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "core/report.hh"
#include "experiment_replay.hh"
#include "stats/dump_reader.hh"
#include "stats/trace.hh"
#include "temp_path.hh"
#include "workload/synthetic.hh"

namespace dtsim {
namespace {

SystemConfig
testConfig(SystemKind kind = SystemKind::Segm)
{
    SystemConfig cfg;
    cfg.kind = kind;
    cfg.disks = 4;
    cfg.streams = 16;
    cfg.workers = 8;
    cfg.stripeUnitBytes = 128 * kKiB;
    return cfg;
}

Trace
testTrace(std::uint64_t requests = 300, double writes = 0.1)
{
    SyntheticParams sp;
    sp.numFiles = 20000;
    sp.fileSizeBytes = 16 * kKiB;
    sp.numRequests = requests;
    sp.zipfAlpha = 0.4;
    sp.writeProb = writes;
    const SystemConfig cfg = testConfig();
    return makeSynthetic(sp, cfg.disks * cfg.disk.totalBlocks())
        .trace;
}

/** Compare every RunResult field that tracing must not perturb. */
void
expectSameResults(const RunResult& a, const RunResult& b)
{
    EXPECT_EQ(a.ioTime, b.ioTime);
    EXPECT_EQ(a.flushTime, b.flushTime);
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.blocks, b.blocks);
    EXPECT_EQ(a.agg.reads, b.agg.reads);
    EXPECT_EQ(a.agg.writes, b.agg.writes);
    EXPECT_EQ(a.agg.cacheHitRequests, b.agg.cacheHitRequests);
    EXPECT_EQ(a.agg.mediaAccesses, b.agg.mediaAccesses);
    EXPECT_EQ(a.agg.seekTime, b.agg.seekTime);
    EXPECT_EQ(a.agg.queueTime, b.agg.queueTime);
    EXPECT_EQ(a.agg.busTime, b.agg.busTime);
    EXPECT_EQ(a.agg.latencySum, b.agg.latencySum);
    EXPECT_EQ(a.ra.specInserted, b.ra.specInserted);
    EXPECT_EQ(a.ra.specUsed, b.ra.specUsed);
    EXPECT_EQ(a.ra.specWasted, b.ra.specWasted);
    EXPECT_DOUBLE_EQ(a.meanLatencyMs, b.meanLatencyMs);
}

TEST(RequestTrace, RecordsMatchSimulatedRequests)
{
    const std::string path = test::tempPath("trace.bin");
    const Trace trace = testTrace();
    RunOptions opts;
    opts.tracePath = path;
    const RunResult r =
        test::replayTrace(testConfig(), trace, nullptr, nullptr, opts);

    std::vector<RequestTraceEvent> events;
    ASSERT_TRUE(readTraceFile(path, events));
    std::remove(path.c_str());

    // One record per host request, none lost or duplicated.
    EXPECT_EQ(r.traceRecords, events.size());
    EXPECT_EQ(events.size(), r.agg.reads + r.agg.writes);

    std::uint64_t media = 0, cache_served = 0, hdc = 0;
    std::uint64_t blocks = 0, writes = 0;
    Tick queue = 0, seek = 0, rot = 0, xfer = 0, bus = 0, lat = 0;
    for (const RequestTraceEvent& ev : events) {
        switch (ev.outcome) {
          case TraceOutcome::Media: ++media; break;
          case TraceOutcome::Cache: ++cache_served; break;
          case TraceOutcome::Hdc: ++hdc; break;
        }
        blocks += ev.blocks;
        writes += ev.isWrite ? 1 : 0;
        queue += ev.queue;
        seek += ev.seek;
        rot += ev.rotation;
        xfer += ev.transfer;
        bus += ev.bus;
        lat += ev.latency;
        EXPECT_LT(ev.disk, 4u);
        EXPECT_GE(ev.latency,
                  ev.queue + ev.seek + ev.rotation + ev.transfer);
    }

    // Outcome attribution reconciles with the controller counters.
    EXPECT_EQ(cache_served + hdc, r.agg.cacheHitRequests);
    EXPECT_EQ(hdc, r.agg.hdcHitRequests);
    EXPECT_EQ(media,
              r.agg.reads + r.agg.writes - r.agg.cacheHitRequests);

    // Per-record breakdowns sum to the aggregate counters. Without
    // HDC there are no background flush jobs, so media time is fully
    // attributed to traced (host) requests.
    EXPECT_EQ(blocks, r.agg.readBlocks + r.agg.writeBlocks);
    EXPECT_EQ(writes, r.agg.writes);
    EXPECT_EQ(queue, r.agg.queueTime);
    EXPECT_EQ(bus, r.agg.busTime);
    EXPECT_EQ(lat, r.agg.latencySum);
    EXPECT_EQ(seek, r.agg.seekTime);
    EXPECT_EQ(rot, r.agg.rotTime);
    EXPECT_EQ(xfer, r.agg.xferTime);
}

TEST(RequestTrace, FailedWritesAreFatal)
{
    // /dev/full accepts the open and fails every write, so the error
    // surfaces only when the output is flushed and closed.
    if (access("/dev/full", W_OK) != 0)
        GTEST_SKIP() << "no /dev/full";
    RunOptions trace_opts;
    trace_opts.tracePath = "/dev/full";
    EXPECT_DEATH(test::replayTrace(testConfig(), testTrace(), nullptr,
                                   nullptr, trace_opts),
                 "cannot write trace file /dev/full");
    RunOptions stats_opts;
    stats_opts.stats = StatsSink::file("/dev/full");
    EXPECT_DEATH(test::replayTrace(testConfig(), testTrace(), nullptr,
                                   nullptr, stats_opts),
                 "cannot write stats file '/dev/full'");
}

TEST(RequestTrace, DisabledTracerChangesNothingAndWritesNothing)
{
    const std::string path = test::tempPath("trace.bin");
    std::remove(path.c_str());
    const Trace trace = testTrace();

    const RunResult plain = test::replayTrace(testConfig(), trace);
    const RunResult with_opts = test::replayTrace(
        testConfig(), trace, nullptr, nullptr, RunOptions{});
    expectSameResults(plain, with_opts);
    EXPECT_EQ(with_opts.traceRecords, 0u);

    // No tracePath given: no file appears.
    std::FILE* f = std::fopen(path.c_str(), "r");
    EXPECT_EQ(f, nullptr);
    if (f)
        std::fclose(f);
}

TEST(RequestTrace, TracingDoesNotPerturbResults)
{
    const std::string path = test::tempPath("trace.bin");
    const Trace trace = testTrace();

    const RunResult plain = test::replayTrace(testConfig(), trace);
    RunOptions opts;
    opts.tracePath = path;
    std::ostringstream stats;
    opts.stats = StatsSink::stream(stats);
    const RunResult traced =
        test::replayTrace(testConfig(), trace, nullptr, nullptr, opts);
    std::remove(path.c_str());

    expectSameResults(plain, traced);
    EXPECT_GT(traced.traceRecords, 0u);
}

TEST(RequestTrace, BackToBackRunsAreIdentical)
{
    const Trace trace = testTrace();
    RunOptions opts;
    std::ostringstream s1, s2;

    opts.stats = StatsSink::stream(s1);
    const RunResult r1 =
        test::replayTrace(testConfig(), trace, nullptr, nullptr, opts);
    opts.stats = StatsSink::stream(s2);
    const RunResult r2 =
        test::replayTrace(testConfig(), trace, nullptr, nullptr, opts);

    // Stat registration is per-run: the second run starts from fresh
    // groups and produces a byte-identical dump (modulo the volatile
    // wall-clock line).
    expectSameResults(r1, r2);
    EXPECT_EQ(stats::stripVolatile(s1.str()),
              stats::stripVolatile(s2.str()));
}

TEST(RequestTrace, StatsDumpContainsDocumentedNames)
{
    const Trace trace = testTrace();
    RunOptions opts;
    std::ostringstream stats;
    opts.stats = StatsSink::stream(stats);
    const RunResult r =
        test::replayTrace(testConfig(), trace, nullptr, nullptr, opts);
    const std::string out = stats.str();

    // Spot-check one name from each section of docs/METRICS.md.
    for (const char* name :
         {"sim.io_time_ms", "sim.requests", "sim.cache.hit_rate",
          "sim.read_ahead.accuracy", "sim.media.queue_ms",
          "sim.config.disks", "sim.bus.utilization",
          "sim.disk0.reads", "sim.disk0.sched.depth_max",
          "sim.disk0.mech.seeks", "sim.service.latency_ms.count",
          "sim.service.queue_depth.count"}) {
        EXPECT_NE(out.find(name), std::string::npos)
            << "missing " << name;
    }

    // The dump's request count is the run's.
    const std::string needle =
        "sim.requests " + std::to_string(r.requests);
    EXPECT_NE(out.find(needle), std::string::npos);
}

TEST(RequestTrace, SweepAggregationMatchesSerial)
{
    const Trace trace = testTrace(200);
    auto batch = [&] {
        std::vector<Experiment> out;
        for (SystemKind k : {SystemKind::Segm, SystemKind::Block,
                             SystemKind::NoRA, SystemKind::Segm}) {
            Experiment e(test::withSystem(testConfig(k)));
            e.replay(trace);
            out.push_back(std::move(e));
        }
        return out;
    };

    std::vector<Experiment> serial_batch = batch();
    std::vector<Experiment> parallel_batch = batch();
    const std::vector<RunResult> serial =
        Experiment::runAll(serial_batch, 1);
    const std::vector<RunResult> parallel =
        Experiment::runAll(parallel_batch, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectSameResults(serial[i], parallel[i]);

    // Each run aggregated its own counters, so the batch totals do
    // not depend on the thread count.
    auto totals = [](const std::vector<RunResult>& results) {
        ControllerStats agg;
        RaCounters ra;
        for (const RunResult& r : results) {
            agg.reads += r.agg.reads;
            agg.mediaAccesses += r.agg.mediaAccesses;
            agg.queueTime += r.agg.queueTime;
            agg.latencySum += r.agg.latencySum;
            agg.latencyMax = std::max(agg.latencyMax, r.agg.latencyMax);
            ra.specInserted += r.ra.specInserted;
            ra.specUsed += r.ra.specUsed;
            ra.specWasted += r.ra.specWasted;
        }
        return std::pair{agg, ra};
    };
    const auto [a, ra] = totals(serial);
    const auto [b, rb] = totals(parallel);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.mediaAccesses, b.mediaAccesses);
    EXPECT_EQ(a.queueTime, b.queueTime);
    EXPECT_EQ(a.latencySum, b.latencySum);
    EXPECT_EQ(a.latencyMax, b.latencyMax);
    EXPECT_EQ(ra.specInserted, rb.specInserted);
    EXPECT_EQ(ra.specUsed, rb.specUsed);
    EXPECT_EQ(ra.specWasted, rb.specWasted);
}

TEST(RequestTrace, PeriodicSnapshotsLeaveResultsIntact)
{
    const Trace trace = testTrace(150);

    const RunResult plain = test::replayTrace(testConfig(), trace);

    RunOptions opts;
    std::ostringstream stats;
    opts.stats = StatsSink::stream(stats);
    opts.statsIntervalTicks = fromMicros(2000);
    const RunResult snap =
        test::replayTrace(testConfig(), trace, nullptr, nullptr, opts);

    expectSameResults(plain, snap);

    // At least one mid-run snapshot plus the final dump appeared.
    const std::string out = stats.str();
    EXPECT_NE(out.find("# snapshot @"), std::string::npos);
    EXPECT_NE(out.find("sim.io_time_ms"), std::string::npos);
}

/** A string buffer that logs its length at every sync (flush). */
class SyncLog : public std::stringbuf
{
  public:
    std::vector<std::size_t> syncs;

  protected:
    int
    sync() override
    {
        syncs.push_back(static_cast<std::size_t>(pptr() - pbase()));
        return std::stringbuf::sync();
    }
};

TEST(RequestTrace, SnapshotsFlushOnceWritten)
{
    // `tail -f` on the stats file follows a run only if each snapshot
    // is flushed as soon as it is written, not when the dump closes.
    const Trace trace = testTrace(150);
    SyncLog buf;
    std::ostream os(&buf);
    Experiment e(test::withSystem(testConfig()));
    e.replay(trace)
        .statsTo(StatsSink::stream(os))
        .statsEvery(fromMicros(2000));
    e.run();

    // A snapshot ends where the next '#' section line begins (another
    // snapshot or the final dump); the stream was flushed right there.
    const std::string out = buf.str();
    std::size_t snapshots = 0;
    std::size_t unflushed = 0;
    for (std::size_t at = out.find("# snapshot @");
         at != std::string::npos;
         at = out.find("# snapshot @", at + 1)) {
        ++snapshots;
        const std::size_t end = out.find("\n#", at) + 1;
        if (std::find(buf.syncs.begin(), buf.syncs.end(), end) ==
            buf.syncs.end())
            ++unflushed;
    }
    EXPECT_GT(snapshots, 0u);
    EXPECT_EQ(unflushed, 0u) << "of " << snapshots << " snapshots";
}

} // namespace
} // namespace dtsim
