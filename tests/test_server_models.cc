/** @file Tests for the server workload models (Section 6.3). */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "workload/server_models.hh"

namespace dtsim {
namespace {

constexpr std::uint64_t kCapacity = 64ULL << 20;   // Blocks.

ServerModelParams
tinyModel()
{
    ServerModelParams p;
    p.name = "tiny";
    p.numFiles = 2000;
    p.avgFileBytes = 16 * 1024;
    p.fileSizeSigma = 0.8;
    p.numRequests = 5000;
    p.warmupRequests = 1000;
    p.zipfAlpha = 0.8;
    p.writeRequestProb = 0.1;
    p.bufferCacheBlocks = 500;
    p.syncEveryRequests = 1000;
    p.dayEveryRequests = 0;
    p.fragmentation = 0.02;
    p.seed = 77;
    return p;
}

TEST(ServerModel, ProducesNonEmptyTrace)
{
    const ServerWorkload w = makeServerWorkload(tinyModel(),
                                                kCapacity);
    EXPECT_FALSE(w.trace.empty());
    EXPECT_EQ(w.image->fileCount(), 2000u);
}

TEST(ServerModel, TraceBlocksWithinImage)
{
    const ServerWorkload w = makeServerWorkload(tinyModel(),
                                                kCapacity);
    const std::uint64_t limit = w.image->allocatedBlocks();
    for (const TraceRecord& r : w.trace)
        ASSERT_LE(r.start + r.count, limit);
}

TEST(ServerModel, CacheFiltersRepeatedReads)
{
    // With a big cache and no writes, the hottest files should be
    // absorbed: disk accesses far fewer than logical reads.
    ServerModelParams p = tinyModel();
    p.writeRequestProb = 0.0;
    p.bufferCacheBlocks = 50000;   // Larger than the footprint.
    p.warmupRequests = 20000;      // Touch (nearly) every file.
    const ServerWorkload w = makeServerWorkload(p, kCapacity);
    // Post-warmup, (nearly) everything is cached: disk traffic is a
    // tiny fraction of the 5000 recorded requests.
    const TraceStats s = computeStats(w.trace);
    EXPECT_LT(s.records, 250u);
}

TEST(ServerModel, WriteMergingShrinksDiskWrites)
{
    // The paper's 34% -> 20% effect: repeated writes to the same
    // blocks merge in the buffer cache before reaching the disk.
    ServerModelParams p = tinyModel();
    p.writeRequestProb = 1.0;
    p.zipfAlpha = 1.0;
    p.syncEveryRequests = 1000;
    const ServerWorkload w = makeServerWorkload(p, kCapacity);
    const TraceStats s = computeStats(w.trace);
    EXPECT_GT(s.writeBlocks, 0u);
    // 5000 recorded all-write requests of ~4-block files dirty
    // ~20000 blocks logically; merging must absorb a large share.
    EXPECT_LT(s.writeBlocks, 15000u);
}

TEST(ServerModel, DayCycleCausesRepeatMisses)
{
    ServerModelParams with = tinyModel();
    with.writeRequestProb = 0.0;
    with.bufferCacheBlocks = 20000;
    with.dayEveryRequests = 500;
    ServerModelParams without = with;
    without.dayEveryRequests = 0;

    const std::vector<std::uint64_t> c_with = accessCountsSorted(
        makeServerWorkload(with, kCapacity).trace, 1);
    const std::vector<std::uint64_t> c_without = accessCountsSorted(
        makeServerWorkload(without, kCapacity).trace, 1);
    ASSERT_FALSE(c_with.empty());
    ASSERT_FALSE(c_without.empty());
    EXPECT_GT(c_with.front(), c_without.front());
}

TEST(ServerModel, TraceSummariesMatchMapCounts)
{
    // computeStats counts a server trace's jobs in one pass and
    // accessCountsSorted counts its blocks with a MissCounter; both
    // must agree with ordered containers.
    ServerModelParams p = tinyModel();
    p.dayEveryRequests = 500;
    const ServerWorkload w = makeServerWorkload(p, kCapacity);
    std::set<std::uint32_t> jobs;
    std::map<ArrayBlock, std::uint64_t> counts;
    for (const TraceRecord& r : w.trace) {
        jobs.insert(r.job);
        for (std::uint32_t i = 0; i < r.count; ++i)
            ++counts[r.start + i];
    }
    std::vector<std::uint64_t> sorted;
    for (const auto& [block, n] : counts)
        sorted.push_back(n);
    std::sort(sorted.begin(), sorted.end(), std::greater<>());

    ASSERT_FALSE(w.trace.empty());
    EXPECT_EQ(computeStats(w.trace).jobs, jobs.size());
    EXPECT_EQ(accessCountsSorted(w.trace), sorted);
}

TEST(ServerModel, PartialAccessProducesSmallRecords)
{
    ServerModelParams p = tinyModel();
    p.partialAccess = true;
    p.avgAccessBytes = 3.1 * 1024;
    p.avgFileBytes = 256 * 1024;
    p.numFiles = 500;
    const ServerWorkload w = makeServerWorkload(p, kCapacity);
    const TraceStats s = computeStats(w.trace);
    EXPECT_LT(s.meanRecordBlocks, 4.0);
}

TEST(ServerModel, DeterministicForSeed)
{
    const ServerWorkload a = makeServerWorkload(tinyModel(),
                                                kCapacity);
    const ServerWorkload b = makeServerWorkload(tinyModel(),
                                                kCapacity);
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t i = 0; i < a.trace.size(); i += 17)
        EXPECT_EQ(a.trace[i].start, b.trace[i].start);
}

TEST(ServerModel, PresetsMatchPaperHeadlines)
{
    const ServerModelParams web = webServerParams(1.0);
    EXPECT_EQ(web.numFiles, 70000u);
    EXPECT_EQ(web.numRequests, 1700000u);
    EXPECT_NEAR(web.avgFileBytes, 21.5 * 1024, 1.0);
    EXPECT_EQ(web.streams, 16u);

    const ServerModelParams proxy = proxyServerParams(1.0);
    EXPECT_EQ(proxy.numFiles, 440000u);
    EXPECT_EQ(proxy.numRequests, 750000u);
    EXPECT_NEAR(proxy.writeRequestProb, 0.43, 1e-9);
    EXPECT_EQ(proxy.streams, 128u);

    const ServerModelParams file = fileServerParams(1.0);
    EXPECT_EQ(file.numFiles, 30000u);
    EXPECT_EQ(file.numRequests, 9500000u);
    EXPECT_TRUE(file.partialAccess);
    EXPECT_NEAR(file.avgAccessBytes, 3.1 * 1024, 1.0);
}

TEST(ServerModel, ScaleAppliesToRequestsOnly)
{
    const ServerModelParams half = webServerParams(0.5);
    EXPECT_EQ(half.numRequests, 850000u);
    EXPECT_EQ(half.numFiles, 70000u);
}

TEST(ServerModel, AdjacentRecordsOfJobCoalesced)
{
    const ServerWorkload w = makeServerWorkload(tinyModel(),
                                                kCapacity);
    for (std::size_t i = 1; i < w.trace.size(); ++i) {
        const TraceRecord& a = w.trace[i - 1];
        const TraceRecord& b = w.trace[i];
        if (a.job == b.job && a.isWrite == b.isWrite) {
            ASSERT_NE(a.start + a.count, b.start)
                << "uncoalesced adjacent records at " << i;
        }
    }
}

TEST(ServerModel, ScaledRequestsSaturate)
{
    EXPECT_EQ(scaledRequests(1700000.0, 0.5), 850000u);
    EXPECT_EQ(scaledRequests(1700000.0, 1e300), UINT64_MAX);
    EXPECT_EQ(scaledRequests(1700000.0, std::nan("")), UINT64_MAX);
    EXPECT_EQ(scaledRequests(1700000.0, -1.0), 0u);
}

TEST(ServerModel, JobIdsMustFit32Bits)
{
    // Ids number every request, sync and day, plus the final sync.
    ServerModelParams p = tinyModel();
    p.warmupRequests = 0;
    p.syncEveryRequests = 0;
    p.numRequests = (1ull << 32) - 1;
    EXPECT_TRUE(jobIdsFit(p));
    p.numRequests = 1ull << 32;
    EXPECT_FALSE(jobIdsFit(p));

    p.numRequests = (1ull << 32) - 1;
    p.dayEveryRequests = 1000;
    EXPECT_FALSE(jobIdsFit(p));
    p.numRequests = UINT64_MAX;   // A saturated scale.
    p.warmupRequests = 150000;
    EXPECT_FALSE(jobIdsFit(p));
    EXPECT_DEATH(makeServerWorkload(p, kCapacity), "32-bit job ids");
}

/** Build `p` with DTSIM_JOBS set to `jobs`, restoring the caller's. */
ServerWorkload
buildWithJobs(const ServerModelParams& p, const char* jobs)
{
    const char* prev = std::getenv("DTSIM_JOBS");
    const std::string saved = prev ? prev : "";
    setenv("DTSIM_JOBS", jobs, 1);
    ServerWorkload w = makeServerWorkload(p, kCapacity);
    if (prev)
        setenv("DTSIM_JOBS", saved.c_str(), 1);
    else
        unsetenv("DTSIM_JOBS");
    return w;
}

void
expectSameWorkload(const ServerModelParams& p)
{
    const ServerWorkload one = buildWithJobs(p, "1");
    const ServerWorkload four = buildWithJobs(p, "4");
    ASSERT_EQ(one.trace.size(), four.trace.size()) << p.name;
    // The inline path reserves its trace up front instead of growing
    // it by doubling.
    EXPECT_LE(one.trace.capacity(),
              std::max<std::size_t>(one.trace.size(), p.numRequests))
        << p.name;
    for (std::size_t i = 0; i < one.trace.size(); ++i) {
        const TraceRecord& a = one.trace[i];
        const TraceRecord& b = four.trace[i];
        ASSERT_TRUE(a.start == b.start && a.count == b.count &&
                    a.isWrite == b.isWrite && a.job == b.job)
            << p.name << ": record " << i << " differs";
    }
    const BufferCacheStats& x = one.bufferCache;
    const BufferCacheStats& y = four.bufferCache;
    EXPECT_EQ(x.readLookups, y.readLookups) << p.name;
    EXPECT_EQ(x.readMisses, y.readMisses) << p.name;
    EXPECT_EQ(x.writeLookups, y.writeLookups) << p.name;
    EXPECT_EQ(x.writeMerges, y.writeMerges) << p.name;
    EXPECT_EQ(x.evictions, y.evictions) << p.name;
    EXPECT_EQ(x.dirtyWritebacks, y.dirtyWritebacks) << p.name;
}

TEST(ServerModel, SameWorkloadForAnyThreadCount)
{
    // Generation may replay whole days on worker threads; the trace
    // and the cache statistics must not depend on how many.
    expectSameWorkload(webServerParams(0.02));
    expectSameWorkload(fileServerParams(0.002));

    ServerModelParams phased = tinyModel();
    phased.name = "phased";
    phased.numRequests = 60000;
    phased.partialAccess = true;
    phased.avgFileBytes = 64 * 1024;
    phased.phaseShiftEvery = 9000;
    phased.phaseOffsetFiles = 700;
    phased.syncEveryRequests = 700;
    phased.dayEveryRequests = 2100;
    expectSameWorkload(phased);
}

} // namespace
} // namespace dtsim
