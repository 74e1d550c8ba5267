/**
 * @file
 * Tests of the sampled-tracing pipeline: the SPSC TraceRing, binary
 * record pack/unpack, the RequestTracer writer thread, sampling
 * determinism, and sample=0 purity.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/report.hh"
#include "experiment_replay.hh"
#include "stats/dump_reader.hh"
#include "stats/trace.hh"
#include "stats/trace_ring.hh"
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

BinaryTraceRecord
sampleRecord(std::uint64_t n)
{
    RequestTraceEvent ev;
    ev.completed = 1000 * n;
    ev.disk = static_cast<std::uint32_t>(n % 7);
    ev.lba = 64 * n;
    ev.blocks = 8;
    ev.isWrite = (n % 3) == 0;
    ev.outcome = TraceOutcome::Media;
    ev.queue = 11 * n;
    ev.seek = 5;
    ev.rotation = 6;
    ev.transfer = 7;
    ev.bus = 8;
    ev.latency = 12 * n;
    return packTraceRecord(ev);
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

TEST(TraceRing, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(TraceRing(1).capacity(), 1u);
    EXPECT_EQ(TraceRing(2).capacity(), 2u);
    EXPECT_EQ(TraceRing(3).capacity(), 4u);
    EXPECT_EQ(TraceRing(1000).capacity(), 1024u);
}

TEST(TraceRing, PushPopRoundTripAcrossWraparound)
{
    TraceRing ring(8);
    BinaryTraceRecord out[8];
    std::uint64_t next = 0, read = 0;
    // Cycle through the ring several times its capacity so the
    // free-running cursors wrap the slot array repeatedly.
    for (int cycle = 0; cycle < 10; ++cycle) {
        for (int i = 0; i < 5; ++i)
            ASSERT_TRUE(ring.push(sampleRecord(next++)));
        std::size_t n = ring.pop(out, 8);
        ASSERT_EQ(n, 5u);
        for (std::size_t i = 0; i < n; ++i) {
            const BinaryTraceRecord want = sampleRecord(read++);
            EXPECT_EQ(out[i].completed, want.completed);
            EXPECT_EQ(out[i].lba, want.lba);
        }
    }
    EXPECT_EQ(ring.pop(out, 8), 0u);
    EXPECT_EQ(ring.dropped(), 0u);
}

TEST(TraceRing, OverflowCountsDropsAndNeverBlocks)
{
    TraceRing ring(8);
    for (std::uint64_t i = 0; i < 8; ++i)
        ASSERT_TRUE(ring.push(sampleRecord(i)));
    // Full ring: pushes return immediately with false and count.
    for (std::uint64_t i = 0; i < 3; ++i)
        EXPECT_FALSE(ring.push(sampleRecord(100 + i)));
    EXPECT_EQ(ring.dropped(), 3u);

    // Draining restores capacity; the dropped records stay dropped.
    BinaryTraceRecord out[8];
    EXPECT_EQ(ring.pop(out, 8), 8u);
    EXPECT_EQ(out[0].completed, sampleRecord(0).completed);
    EXPECT_TRUE(ring.push(sampleRecord(200)));
    EXPECT_EQ(ring.pop(out, 8), 1u);
    EXPECT_EQ(out[0].completed, sampleRecord(200).completed);
    EXPECT_EQ(ring.dropped(), 3u);
}

TEST(TraceRing, ConcurrentProducerConsumerLosesNothing)
{
    // One producer, one consumer, tiny ring: every pushed record is
    // either popped or counted dropped, in FIFO order. Run this under
    // tsan to vet the acquire/release protocol.
    TraceRing ring(64);
    constexpr std::uint64_t kTotal = 200000;
    // Published by the producer once it is done; the consumer polls
    // it, so it must be atomic.
    std::atomic<std::uint64_t> accepted{0};
    std::uint64_t consumed = 0;
    std::uint64_t next_expected = 0;
    bool in_order = true;

    std::thread consumer([&] {
        BinaryTraceRecord batch[32];
        for (;;) {
            const std::size_t n = ring.pop(batch, 32);
            if (n == 0) {
                const std::uint64_t done =
                    accepted.load(std::memory_order_acquire);
                if (done != 0 && consumed == done)
                    break;  // the producer sets accepted last
                std::this_thread::yield();
                continue;
            }
            for (std::size_t i = 0; i < n; ++i) {
                if (batch[i].completed < 1000 * next_expected)
                    in_order = false;
                next_expected = batch[i].completed / 1000 + 1;
            }
            consumed += n;
        }
    });

    std::uint64_t ok = 0;
    for (std::uint64_t i = 0; i < kTotal; ++i)
        if (ring.push(sampleRecord(i)))
            ++ok;
    accepted.store(ok, std::memory_order_release);
    consumer.join();

    EXPECT_EQ(consumed, ok);
    EXPECT_EQ(ok + ring.dropped(), kTotal);
    EXPECT_TRUE(in_order);
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
    ev.faults = 3;
    ev.retries = 2;
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
    EXPECT_EQ(back.faults, ev.faults);
    EXPECT_EQ(back.retries, ev.retries);
    EXPECT_EQ(back.degraded, ev.degraded);

    // Narrow component fields saturate instead of wrapping.
    RequestTraceEvent wide;
    wide.seek = Tick(1) << 40;
    wide.faults = 1u << 20;
    const BinaryTraceRecord rec = packTraceRecord(wide);
    EXPECT_EQ(rec.seek, 0xffffffffu);
    EXPECT_EQ(rec.faults, 0xffffu);
}

TEST(SampledTrace, WriterThreadAccountingReconciles)
{
    // Hammer a tracer with a deliberately tiny ring. Whatever the
    // writer-thread timing, accepted + dropped must equal the pushes
    // and exactly the accepted records must reach the file.
    const std::string path = test::tempPath("trace.bin");
    constexpr std::uint64_t kTotal = 50000;
    RequestTracer tracer;
    TraceConfig cfg;
    cfg.bufferRecords = 16;
    tracer.open(path, cfg);
    tracer.writePreamble("# tiny-ring accounting test\n");
    for (std::uint64_t i = 0; i < kTotal; ++i) {
        ASSERT_TRUE(tracer.shouldRecord());
        RequestTraceEvent ev;
        ev.completed = i;
        ev.lba = 64 * i;
        tracer.record(ev);
    }
    tracer.close();

    EXPECT_EQ(tracer.records() + tracer.dropped(), kTotal);
    EXPECT_EQ(tracer.sampledOut(), 0u);
    std::vector<RequestTraceEvent> events;
    ASSERT_TRUE(readTraceFile(path, events));
    EXPECT_EQ(events.size(), tracer.records());
    std::remove(path.c_str());
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
    EXPECT_EQ(ra.traceRecords + ra.traceSampledOut + ra.traceDropped,
              ra.requests);
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
