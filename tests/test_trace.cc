/** @file Tests for trace records, statistics, and persistence. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "sim/rng.hh"
#include "temp_path.hh"
#include "workload/trace.hh"

namespace dtsim {
namespace {

Trace
sampleTrace()
{
    Trace t;
    t.push_back({100, 4, false, 0});
    t.push_back({104, 2, false, 0});
    t.push_back({100, 4, true, 1});
    t.push_back({500, 1, false, 2});
    return t;
}

TEST(TraceStats, CountsRecordsAndBlocks)
{
    const TraceStats s = computeStats(sampleTrace());
    EXPECT_EQ(s.records, 4u);
    EXPECT_EQ(s.writeRecords, 1u);
    EXPECT_EQ(s.blocks, 11u);
    EXPECT_EQ(s.writeBlocks, 4u);
    EXPECT_EQ(s.jobs, 3u);
    EXPECT_DOUBLE_EQ(s.writeRecordFraction, 0.25);
    EXPECT_DOUBLE_EQ(s.meanRecordBlocks, 11.0 / 4.0);
}

TEST(TraceStats, DistinctAndMax)
{
    const std::vector<std::uint64_t> counts =
        accessCountsSorted(sampleTrace());
    // Blocks 100..105 and 500: 7 distinct; 100..103 accessed twice.
    ASSERT_EQ(counts.size(), 7u);
    EXPECT_EQ(counts.front(), 2u);
}

TEST(TraceStats, EmptyTrace)
{
    const TraceStats s = computeStats({});
    EXPECT_EQ(s.records, 0u);
    EXPECT_DOUBLE_EQ(s.meanRecordBlocks, 0.0);
}

TEST(TraceStats, OutOfOrderJobIdsCountDistinctIds)
{
    // Ids 5, 2, 7, 2, 5: a smaller id follows a larger one, so the
    // distinct count comes from the sorted copy: {2, 5, 7}.
    Trace t;
    for (std::uint32_t job : {5u, 5u, 2u, 7u, 2u, 2u, 5u})
        t.push_back({job * 10, 1, false, job});
    EXPECT_EQ(computeStats(t).jobs, 3u);

    Rng rng(0x1d5);
    for (int round = 0; round < 50; ++round) {
        Trace r(1 + rng.below(300));
        std::set<std::uint32_t> ids;
        for (TraceRecord& rec : r) {
            rec.job = static_cast<std::uint32_t>(rng.below(40));
            ids.insert(rec.job);
        }
        EXPECT_EQ(computeStats(r).jobs, ids.size()) << "round " << round;
    }
}

TEST(TraceStats, AscendingJobIdsCountedInOnePass)
{
    // Runs of equal ids with gaps between the ids: each run is a job.
    Trace t;
    for (std::uint32_t job : {0u, 0u, 3u, 4u, 4u, 4u, 9u})
        t.push_back({job, 1, false, job});
    EXPECT_EQ(computeStats(t).jobs, 4u);
}

/** Per-block access counts by std::map, sorted descending. */
std::vector<std::uint64_t>
mapAccessCountsSorted(const Trace& trace)
{
    std::map<ArrayBlock, std::uint64_t> counts;
    for (const TraceRecord& r : trace)
        for (std::uint32_t i = 0; i < r.count; ++i)
            ++counts[r.start + i];
    std::vector<std::uint64_t> out;
    for (const auto& [block, n] : counts)
        out.push_back(n);
    std::sort(out.begin(), out.end(), std::greater<>());
    return out;
}

TEST(AccessCounts, MatchesMapCountOnRandomTraces)
{
    Rng rng(0xb10c);
    for (int round = 0; round < 40; ++round) {
        Trace t(rng.below(400));
        for (TraceRecord& rec : t) {
            rec.start = rng.below(2000);
            rec.count = static_cast<std::uint32_t>(1 + rng.below(16));
        }
        const std::vector<std::uint64_t> want = mapAccessCountsSorted(t);
        EXPECT_EQ(accessCountsSorted(t), want) << "round " << round;
        // top keeps the largest counts; a top past the end keeps all.
        const std::size_t top = 1 + rng.below(want.size() + 8);
        const std::vector<std::uint64_t> prefix(
            want.begin(),
            want.begin() + static_cast<std::ptrdiff_t>(
                               std::min(top, want.size())));
        EXPECT_EQ(accessCountsSorted(t, top), prefix)
            << "round " << round << " top " << top;
    }
}

TEST(AccessCounts, SortedDescending)
{
    const auto counts = accessCountsSorted(sampleTrace());
    ASSERT_EQ(counts.size(), 7u);
    for (std::size_t i = 1; i < counts.size(); ++i)
        EXPECT_LE(counts[i], counts[i - 1]);
    EXPECT_EQ(counts[0], 2u);
}

TEST(AccessCounts, TopTruncation)
{
    const auto counts = accessCountsSorted(sampleTrace(), 3);
    EXPECT_EQ(counts.size(), 3u);
}

TEST(TracePersistence, SaveToFullDeviceIsFatal)
{
    if (access("/dev/full", W_OK) != 0)
        GTEST_SKIP() << "no /dev/full";
    EXPECT_DEATH(saveTrace(sampleTrace(), "/dev/full"),
                 "saveTrace: cannot write /dev/full");
}

TEST(TracePersistence, SaveLoadRoundTrip)
{
    const Trace t = sampleTrace();
    const std::string path = test::tempPath("trace.txt");
    saveTrace(t, path);
    const Trace loaded = loadTrace(path);
    ASSERT_EQ(loaded.size(), t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(loaded[i].start, t[i].start);
        EXPECT_EQ(loaded[i].count, t[i].count);
        EXPECT_EQ(loaded[i].isWrite, t[i].isWrite);
        EXPECT_EQ(loaded[i].job, t[i].job);
    }
    std::remove(path.c_str());
}

TEST(TracePersistence, LoadMissingFileThrows)
{
    EXPECT_THROW(loadTrace("/nonexistent/nope.txt"),
                 std::runtime_error);
}

TEST(TracePersistence, LoadMalformedThrows)
{
    const std::string path = test::tempPath("trace.txt");
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("# header\nnot a record\n", f);
    std::fclose(f);
    EXPECT_THROW(loadTrace(path), std::runtime_error);
    std::remove(path.c_str());
}

/** Write `text` to a scratch file and return its path. */
std::string
writeTraceText(const std::string& text)
{
    const std::string path = test::tempPath("trace.txt");
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs(text.c_str(), f);
    std::fclose(f);
    return path;
}

TEST(TracePersistence, LoadToleratesLayoutNoise)
{
    // Comments, blank lines, extra blanks and CRLF line ends are not
    // records; the values survive.
    const std::string path = writeTraceText(
        "# dtsim-trace v1\n"
        "\n"
        "   \t\n"
        "  # indented comment\n"
        "100 4 0 7\r\n"
        "  18446744073709551610\t5  1   4294967295  \n");
    const Trace t = loadTrace(path);
    ASSERT_EQ(t.size(), 2u);
    EXPECT_EQ(t[0].start, 100u);
    EXPECT_EQ(t[0].count, 4u);
    EXPECT_FALSE(t[0].isWrite);
    EXPECT_EQ(t[0].job, 7u);
    EXPECT_EQ(t[1].start, 18446744073709551610ull);
    EXPECT_TRUE(t[1].isWrite);
    EXPECT_EQ(t[1].job, 4294967295u);
    std::remove(path.c_str());
}

TEST(TracePersistence, MalformedLinesNamePathAndLine)
{
    // Each bad record is planted at a seeded position in an otherwise
    // valid trace; the error must name the file and that line.
    constexpr std::uint64_t kCapacity = 1u << 21;  // Array size, blocks.
    const std::vector<std::string> bad = {
        "-5 1 0 0",                 // Sign: used to wrap to 2^64 - 5.
        "100 -1 0 0",
        "+100 1 0 0",
        "100 1 0 0 junk",           // Trailing junk.
        "100 1 0 0x",
        "100 1 0 3.5",
        "100 1 7 0",                // Write flag outside {0, 1}.
        "100 1 2 0",
        "100 0 0 0",                // Zero-length record.
        "100 4294967296 0 0",       // Count past 32 bits.
        "100 1 0 4294967296",       // Job past 32 bits.
        "18446744073709551616 1 0 0",
        "18446744073709551615 2 0 0",  // Runs past the last block.
        "2097150 4 0 0",            // Runs past the array's end.
        "100 1 0",                  // Missing field.
        "not a record",
        "100,1,0,0",
    };
    Rng rng(20260);
    for (int trial = 0; trial < 64; ++trial) {
        const std::string& line = bad[trial % bad.size()];
        const unsigned good = static_cast<unsigned>(rng.below(20));
        const unsigned at = static_cast<unsigned>(rng.below(good + 1));
        std::string text = "# dtsim-trace v1: start count write job\n";
        unsigned lineno = 1;
        unsigned bad_line = 0;
        for (unsigned i = 0; i <= good; ++i) {
            if (i == at) {
                text += line + "\n";
                bad_line = ++lineno;
            }
            if (i < good) {
                text += std::to_string(rng.below(1u << 20)) + " " +
                        std::to_string(1 + rng.below(16)) + " " +
                        std::to_string(rng.below(2)) + " " +
                        std::to_string(rng.below(100)) + "\n";
                ++lineno;
            }
        }
        const std::string path = writeTraceText(text);
        try {
            loadTrace(path, kCapacity);
            ADD_FAILURE() << "accepted '" << line << "'";
        } catch (const std::runtime_error& e) {
            const std::string where =
                path + ":" + std::to_string(bad_line) + ":";
            EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
                << e.what() << " (expected " << where << ")";
        }
        std::remove(path.c_str());
    }
}

TEST(TracePersistence, LoadAcceptsRecordEndingAtCapacity)
{
    // The last block of the array is block capacity - 1.
    const std::string path = writeTraceText("0 1 0 0\n"
                                            "996 4 1 1\n");
    const Trace t = loadTrace(path, 1000);
    ASSERT_EQ(t.size(), 2u);
    EXPECT_EQ(t[1].start, 996u);
    EXPECT_EQ(t[1].count, 4u);
    std::remove(path.c_str());
}

TEST(TracePersistence, LoadRejectsRecordPastCapacity)
{
    // One block past the end is enough; the error names the line and
    // the capacity it was checked against.
    const std::string path = writeTraceText("# header\n"
                                            "0 1 0 0\n"
                                            "997 4 0 0\n"
                                            "0 1 0 0\n");
    try {
        loadTrace(path, 1000);
        ADD_FAILURE() << "accepted a record past the array's end";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(path + ":3: record runs past the end of the "
                            "array (1000 blocks)"),
                  std::string::npos)
            << what;
    }
    std::remove(path.c_str());
}

TEST(TracePersistence, LoadWithoutCapacityAcceptsAnyBlock)
{
    // Without a target array only 64-bit block numbers bound a record.
    const std::string path =
        writeTraceText("1000000000000 4 0 2\n"
                       "18446744073709551611 4 0 0\n");
    const Trace t = loadTrace(path);
    ASSERT_EQ(t.size(), 2u);
    EXPECT_EQ(t[0].start, 1000000000000ull);
    EXPECT_THROW(loadTrace(path, 1000000000000ull), std::runtime_error);
    std::remove(path.c_str());
}

} // namespace
} // namespace dtsim
