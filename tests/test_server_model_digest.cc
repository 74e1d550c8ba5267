/**
 * @file
 * Generator output regression: each case runs makeServerWorkload once
 * and the FNV-1a digest of its trace plus every BufferCacheStats field
 * must equal a committed constant. The cases cover the web, proxy and
 * file presets at small scales (whole-file and partial access, write
 * merging, periodic syncs, day cycles) and hand-built models with
 * popularity phase shifts and the other prefetch modes.
 *
 * A mismatch prints the actual digest. Update a constant only with a
 * deliberate model change, and explain the trace diff alongside it.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

#include "stats/dump_reader.hh"
#include "workload/server_models.hh"

namespace dtsim {
namespace {

constexpr std::uint64_t kCapacity = 64ULL << 20;   // Blocks.

/** Running stats::fnv1a, fed one little-endian integer at a time. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        char bytes[8];
        for (int i = 0; i < 8; ++i)
            bytes[i] = static_cast<char>(v >> (8 * i));
        h_ = stats::fnv1a({bytes, sizeof bytes}, h_);
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
        return buf;
    }

  private:
    std::uint64_t h_ = stats::kFnv1aBasis;
};

/** Digest of everything makeServerWorkload reports. */
std::string
digestOf(const ServerModelParams& p)
{
    const ServerWorkload w = makeServerWorkload(p, kCapacity);
    EXPECT_FALSE(w.trace.empty());
    Digest h;
    h.add(w.trace.size());
    for (const TraceRecord& r : w.trace) {
        h.add(r.start);
        h.add(r.count);
        h.add(r.isWrite ? 1 : 0);
        h.add(r.job);
    }
    const BufferCacheStats& s = w.bufferCache;
    h.add(s.readLookups);
    h.add(s.readMisses);
    h.add(s.writeLookups);
    h.add(s.writeMerges);
    h.add(s.evictions);
    h.add(s.dirtyWritebacks);
    return h.hex();
}

/** A small model with alternating popularity phases. */
ServerModelParams
phasedModel()
{
    ServerModelParams p;
    p.name = "phased";
    p.numFiles = 3000;
    p.avgFileBytes = 40 * 1024;
    p.fileSizeSigma = 1.0;
    p.numRequests = 12000;
    p.warmupRequests = 3000;
    p.zipfAlpha = 0.9;
    p.phaseShiftEvery = 2500;
    p.phaseOffsetFiles = 1100;
    p.writeRequestProb = 0.15;
    p.partialAccess = true;
    p.avgAccessBytes = 24 * 1024;
    p.bufferCacheBlocks = 4000;
    p.syncEveryRequests = 1700;
    p.dayEveryRequests = 5000;
    p.fragmentation = 0.2;
    p.placementClusterFiles = 64;
    p.seed = 0x5eed;
    return p;
}

#define EXPECT_DIGEST(params, expected)                                 \
    do {                                                                \
        const std::string d = digestOf(params);                         \
        EXPECT_EQ(d, expected) << "actual digest: " << d;               \
    } while (0)

TEST(ServerModelDigest, WebPreset)
{
    EXPECT_DIGEST(webServerParams(0.02), "e847cc72a29d3f6c");
}

TEST(ServerModelDigest, ProxyPreset)
{
    EXPECT_DIGEST(proxyServerParams(0.01), "fe7a63679ff6f940");
}

TEST(ServerModelDigest, FilePreset)
{
    EXPECT_DIGEST(fileServerParams(0.001), "7f582a2dea2ad5ba");
}

TEST(ServerModelDigest, PhaseShift)
{
    EXPECT_DIGEST(phasedModel(), "53825b59ccfc2699");
}

TEST(ServerModelDigest, PerfectPrefetchSmallCache)
{
    // Whole-file reads under prefetch-to-end through a cache smaller
    // than the largest files: one miss's install run evicts blocks it
    // installed itself.
    ServerModelParams p = phasedModel();
    p.partialAccess = false;
    p.prefetch = PrefetchMode::Perfect;
    p.bufferCacheBlocks = 300;
    p.phaseShiftEvery = 0;
    EXPECT_DIGEST(p, "97b8778fe909890e");
}

TEST(ServerModelDigest, NoPrefetchNoSync)
{
    ServerModelParams p = phasedModel();
    p.prefetch = PrefetchMode::None;
    p.syncEveryRequests = 0;
    p.dayEveryRequests = 0;
    p.zipfAlpha = 0.0;
    EXPECT_DIGEST(p, "60244019e75a884f");
}

/*
 * Day-boundary cases. Generation is replayed in shards of whole days,
 * so these pin the stream where a shard ends or starts: models
 * without day cycles, sync and day boundaries that coincide (with
 * the last request ending a day), a warmup that spans several days,
 * and days short enough to be grouped into one shard.
 */

TEST(ServerModelDigest, SyncsWithoutDayCycle)
{
    ServerModelParams p = phasedModel();
    p.dayEveryRequests = 0;
    EXPECT_DIGEST(p, "b240be9833de0031");
}

TEST(ServerModelDigest, SyncAndDayCoincideAtEnd)
{
    ServerModelParams p = phasedModel();
    p.syncEveryRequests = 1000;
    p.dayEveryRequests = 3000;
    ASSERT_EQ((p.warmupRequests + p.numRequests) % p.dayEveryRequests,
              0u);
    EXPECT_DIGEST(p, "9266bd8bd78dc154");
}

TEST(ServerModelDigest, WarmupSpansDays)
{
    ServerModelParams p = phasedModel();
    p.warmupRequests = 7300;
    p.syncEveryRequests = 900;
    p.dayEveryRequests = 2000;
    EXPECT_DIGEST(p, "2f8e5b872a5e9aa1");
}

TEST(ServerModelDigest, ShortDaysGrouped)
{
    ServerModelParams p = phasedModel();
    p.numRequests = 40000;
    p.syncEveryRequests = 5;
    p.dayEveryRequests = 7;
    EXPECT_DIGEST(p, "d486e1d53f457886");
}

} // namespace
} // namespace dtsim
