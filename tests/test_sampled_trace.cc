/**
 * @file
 * Tests of the sampled-tracing pipeline: binary record pack/unpack,
 * the synchronous writer (record order, the marker, reopen, the
 * trace.sample check), records reaching the file intact, sampling
 * determinism, and sample=0 purity.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
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

/**
 * Drop the "#conf trace.*" header lines: a run with non-default
 * sampling records it in the self-describing header (by design), but
 * everything below the header must match a run without tracing.
 */
std::string
stripTraceConf(const std::string& dump)
{
    std::istringstream in(dump);
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("#conf trace.", 0) == 0)
            continue;
        out << line << "\n";
    }
    return out.str();
}

std::string
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Compare every RunResult field that observability must not perturb. */
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
    EXPECT_DOUBLE_EQ(a.meanLatencyMs, b.meanLatencyMs);
}

TEST(SampledTrace, PackUnpackRoundTripAndSaturation)
{
    RequestTraceEvent ev;
    ev.completed = 123456789012345ull;
    ev.disk = 11;
    ev.lba = (1ull << 40) + 17;
    ev.blocks = 96;
    ev.isWrite = true;
    ev.outcome = TraceOutcome::Hdc;
    ev.queue = 98765432109ull;
    ev.seek = 4000000;
    ev.rotation = 5000000;
    ev.transfer = 6000000;
    ev.bus = 7000000;
    ev.latency = 123456789ull;
    ev.degraded = true;

    const RequestTraceEvent back =
        unpackTraceRecord(packTraceRecord(ev));
    EXPECT_EQ(back.completed, ev.completed);
    EXPECT_EQ(back.disk, ev.disk);
    EXPECT_EQ(back.lba, ev.lba);
    EXPECT_EQ(back.blocks, ev.blocks);
    EXPECT_EQ(back.isWrite, ev.isWrite);
    EXPECT_EQ(back.outcome, ev.outcome);
    EXPECT_EQ(back.queue, ev.queue);
    EXPECT_EQ(back.seek, ev.seek);
    EXPECT_EQ(back.rotation, ev.rotation);
    EXPECT_EQ(back.transfer, ev.transfer);
    EXPECT_EQ(back.bus, ev.bus);
    EXPECT_EQ(back.latency, ev.latency);
    EXPECT_EQ(back.degraded, ev.degraded);

    // Narrow component fields saturate instead of wrapping.
    RequestTraceEvent wide;
    wide.seek = Tick(1) << 40;
    wide.disk = 1u << 20;
    const BinaryTraceRecord rec = packTraceRecord(wide);
    EXPECT_EQ(rec.seek, 0xffffffffu);
    EXPECT_EQ(rec.disk, 0xffffu);
    EXPECT_EQ(rec.unused, 0u);
}

/** A distinct event per index, so a reorder or a loss shows. */
RequestTraceEvent
numberedEvent(std::uint64_t i)
{
    RequestTraceEvent ev;
    ev.completed = 1000 + i;
    ev.disk = static_cast<std::uint32_t>(i % 7);
    ev.lba = i * 32;
    ev.blocks = 1 + static_cast<std::uint32_t>(i % 64);
    ev.isWrite = i % 3 == 0;
    ev.outcome = static_cast<TraceOutcome>(i % 3);
    ev.latency = 5000 + i;
    return ev;
}

void
expectSameEvent(const RequestTraceEvent& a, const RequestTraceEvent& b)
{
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.disk, b.disk);
    EXPECT_EQ(a.lba, b.lba);
    EXPECT_EQ(a.blocks, b.blocks);
    EXPECT_EQ(a.isWrite, b.isWrite);
    EXPECT_EQ(a.outcome, b.outcome);
    EXPECT_EQ(a.latency, b.latency);
}

TEST(SampledTrace, TracerWritesEveryRecordInCallOrder)
{
    // More records than one 256 KiB stdio buffer holds (4096), so the
    // file is written across several flushes.
    constexpr std::uint64_t kRecords = 10000;
    const std::string path = test::tempPath("order.bin");
    RequestTracer tracer;
    tracer.open(path);
    tracer.writePreamble("# preamble line\n#conf trace.sample = 1");
    for (std::uint64_t i = 0; i < kRecords; ++i) {
        ASSERT_TRUE(tracer.shouldRecord());
        tracer.record(numberedEvent(i));
    }
    tracer.close();
    EXPECT_FALSE(tracer.enabled());
    EXPECT_EQ(tracer.records(), kRecords);
    EXPECT_EQ(tracer.sampledOut(), 0u);

    std::vector<RequestTraceEvent> events;
    ASSERT_TRUE(readTraceFile(path, events));
    ASSERT_EQ(events.size(), kRecords);
    for (std::uint64_t i = 0; i < kRecords; ++i)
        expectSameEvent(events[i], numberedEvent(i));

    const std::string file = slurp(path);
    EXPECT_EQ(file.rfind("# preamble line\n#conf trace.sample = 1\n" +
                             std::string(kBinaryTraceMarker) + "\n",
                         0),
              0u);
    std::remove(path.c_str());
}

TEST(SampledTrace, EmptyTraceStillCarriesTheMarker)
{
    const std::string path = test::tempPath("empty.bin");
    RequestTracer tracer;
    tracer.open(path);
    tracer.writePreamble("# no records follow");
    tracer.close();
    // A second close is a no-op, not a second marker.
    tracer.close();
    EXPECT_EQ(tracer.records(), 0u);

    EXPECT_EQ(slurp(path), "# no records follow\n" +
                               std::string(kBinaryTraceMarker) + "\n");
    std::vector<RequestTraceEvent> events;
    ASSERT_TRUE(readTraceFile(path, events));
    EXPECT_TRUE(events.empty());
    std::remove(path.c_str());
}

TEST(SampledTrace, ReopenClosesThePreviousFileAndResetsCounters)
{
    const std::string path_a = test::tempPath("first.bin");
    const std::string path_b = test::tempPath("second.bin");
    RequestTracer tracer;
    TraceConfig none;
    none.sample = 0.0;
    tracer.open(path_a, none);
    for (std::uint64_t i = 0; i < 5; ++i)
        EXPECT_FALSE(tracer.shouldRecord());
    EXPECT_EQ(tracer.sampledOut(), 5u);

    tracer.open(path_b);
    EXPECT_EQ(tracer.sampledOut(), 0u);
    for (std::uint64_t i = 0; i < 3; ++i) {
        ASSERT_TRUE(tracer.shouldRecord());
        tracer.record(numberedEvent(i));
    }
    tracer.close();
    EXPECT_EQ(tracer.records(), 3u);

    // The first file was finished by the reopen: marker, no records.
    std::vector<RequestTraceEvent> first, second;
    ASSERT_TRUE(readTraceFile(path_a, first));
    EXPECT_TRUE(first.empty());
    ASSERT_TRUE(readTraceFile(path_b, second));
    ASSERT_EQ(second.size(), 3u);
    for (std::uint64_t i = 0; i < 3; ++i)
        expectSameEvent(second[i], numberedEvent(i));
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

TEST(SampledTrace, OpenRejectsSampleOutsideUnitInterval)
{
    const std::string path = test::tempPath("bad_sample.bin");
    TraceConfig cfg;
    cfg.sample = 1.5;
    EXPECT_DEATH(RequestTracer().open(path, cfg),
                 "trace.sample must be in \\[0, 1\\], got 1.5");
    cfg.sample = -0.25;
    EXPECT_DEATH(RequestTracer().open(path, cfg),
                 "trace.sample must be in \\[0, 1\\], got -0.25");
    // The check runs before the file is opened.
    EXPECT_NE(access(path.c_str(), F_OK), 0);
}

TEST(SampledTrace, RecordsFollowCompletionOrder)
{
    // The writer runs on the simulation thread, so the file lists
    // requests in the order they completed.
    const SystemConfig cfg = testConfig(SystemKind::Block);
    const Trace trace = testTrace(600, 0.3);
    RunOptions opts;
    opts.tracePath = test::tempPath("completion_order.bin");
    const RunResult r =
        test::replayTrace(cfg, trace, nullptr, nullptr, opts);

    std::vector<RequestTraceEvent> events;
    ASSERT_TRUE(readTraceFile(opts.tracePath, events));
    ASSERT_EQ(events.size(), r.traceRecords);
    ASSERT_GT(events.size(), 1u);
    for (std::size_t i = 1; i < events.size(); ++i)
        ASSERT_LE(events[i - 1].completed, events[i].completed)
            << "record " << i;
    std::remove(opts.tracePath.c_str());
}

TEST(SampledTrace, BinaryRecordsRoundTripThroughReader)
{
    const Trace trace = testTrace();
    RunOptions opts;
    opts.tracePath = test::tempPath("trace.bin");
    const RunResult r =
        test::replayTrace(testConfig(), trace, nullptr, nullptr, opts);

    std::vector<RequestTraceEvent> events;
    ASSERT_TRUE(readTraceFile(opts.tracePath, events));
    EXPECT_GT(events.size(), 0u);
    EXPECT_EQ(events.size(), r.traceRecords);

    // Repacking every event the reader returns reproduces the file's
    // record bytes exactly: nothing is lost between writer and reader.
    const std::string file = slurp(opts.tracePath);
    const std::string marker = std::string(kBinaryTraceMarker) + "\n";
    const std::size_t at = file.find(marker);
    ASSERT_NE(at, std::string::npos);
    const std::size_t base = at + marker.size();
    ASSERT_EQ(file.size() - base,
              events.size() * sizeof(BinaryTraceRecord));
    for (std::size_t i = 0; i < events.size(); ++i) {
        const BinaryTraceRecord rec = packTraceRecord(events[i]);
        EXPECT_EQ(std::memcmp(&rec,
                              file.data() + base + i * sizeof(rec),
                              sizeof(rec)),
                  0)
            << "record " << i;
    }
    std::remove(opts.tracePath.c_str());
}

TEST(SampledTrace, SamplingIsDeterministicPerSeed)
{
    const Trace trace = testTrace();
    const SystemConfig cfg = testConfig();

    RunOptions opts;
    const std::string path_a = test::tempPath("a.bin");
    const std::string path_b = test::tempPath("b.bin");
    const std::string path_c = test::tempPath("c.bin");
    opts.tracePath = path_a;
    opts.trace.sample = 0.5;
    opts.trace.seed = 7;
    const RunResult ra =
        test::replayTrace(cfg, trace, nullptr, nullptr, opts);
    opts.tracePath = path_b;
    const RunResult rbb =
        test::replayTrace(cfg, trace, nullptr, nullptr, opts);

    // Same seed: the sampled set is reproducible, the whole file
    // byte-identical (headers only differ in run.trace, which the
    // synthesized replay header does not include).
    EXPECT_EQ(ra.traceRecords, rbb.traceRecords);
    EXPECT_EQ(ra.traceSampledOut, rbb.traceSampledOut);
    EXPECT_EQ(slurp(path_a), slurp(path_b));

    // Every completion candidate was either recorded or sampled out.
    EXPECT_EQ(ra.traceRecords + ra.traceSampledOut, ra.requests);
    EXPECT_GT(ra.traceRecords, 0u);
    EXPECT_GT(ra.traceSampledOut, 0u);

    // A different seed draws a different set.
    opts.tracePath = path_c;
    opts.trace.seed = 8;
    test::replayTrace(cfg, trace, nullptr, nullptr, opts);
    EXPECT_NE(slurp(path_a), slurp(path_c));

    // Sampling must not perturb the simulation itself.
    expectSameResults(ra, rbb);
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
    std::remove(path_c.c_str());
}

TEST(SampledTrace, CountsBothReplicasOfAMirroredWrite)
{
    // The tracer sees disk requests, so on a mirrored array, where
    // each write reaches both replicas, records + sampled_out is
    // reads + writes over the disks, more than the logical requests.
    // runTrace panics if the identity breaks.
    SystemConfig cfg = testConfig();
    cfg.mirrored = true;
    SyntheticParams sp;
    sp.numFiles = 20000;
    sp.fileSizeBytes = 16 * kKiB;
    sp.numRequests = 300;
    sp.zipfAlpha = 0.4;
    sp.writeProb = 0.3;
    const Trace trace =
        makeSynthetic(sp, cfg.disks / 2 * cfg.disk.totalBlocks()).trace;

    RunOptions opts;
    opts.tracePath = test::tempPath("mirrored.bin");
    opts.trace.sample = 0.5;
    const RunResult r =
        test::replayTrace(cfg, trace, nullptr, nullptr, opts);

    EXPECT_GT(r.agg.writes, 0u);
    EXPECT_EQ(r.traceRecords + r.traceSampledOut,
              r.agg.reads + r.agg.writes);
    EXPECT_GT(r.agg.reads + r.agg.writes, r.requests);
    std::vector<RequestTraceEvent> events;
    ASSERT_TRUE(readTraceFile(opts.tracePath, events));
    EXPECT_EQ(events.size(), r.traceRecords);
    std::remove(opts.tracePath.c_str());
}

TEST(SampledTrace, SampleZeroIsPure)
{
    const Trace trace = testTrace();
    const SystemConfig cfg = testConfig();

    std::ostringstream plain_stats;
    RunOptions plain;
    plain.stats = StatsSink::stream(plain_stats);
    const RunResult rp =
        test::replayTrace(cfg, trace, nullptr, nullptr, plain);

    std::ostringstream traced_stats;
    RunOptions traced;
    traced.stats = StatsSink::stream(traced_stats);
    traced.tracePath = test::tempPath("trace.bin");
    traced.trace.sample = 0.0;
    const RunResult rt =
        test::replayTrace(cfg, trace, nullptr, nullptr, traced);

    // trace.sample=0 arms the tracer but records nothing and leaves
    // results and the stats dump byte-identical to not tracing.
    expectSameResults(rp, rt);
    EXPECT_EQ(rt.traceRecords, 0u);
    EXPECT_EQ(rt.traceSampledOut, rt.requests);
    EXPECT_EQ(stats::stripVolatile(plain_stats.str()),
              stripTraceConf(stats::stripVolatile(traced_stats.str())));

    std::vector<RequestTraceEvent> events;
    ASSERT_TRUE(readTraceFile(traced.tracePath, events));
    EXPECT_TRUE(events.empty());
    std::remove(traced.tracePath.c_str());
}

} // namespace
} // namespace dtsim
