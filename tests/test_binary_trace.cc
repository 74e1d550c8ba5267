/**
 * @file
 * Malformed-input tests of the binary request-trace reader: files
 * without the marker line, truncated final records, and records whose
 * outcome, flag bits or reserved word no writer produces. Every case
 * must be rejected with a warning that names the file (and the record
 * index, for a bad record), and no input may crash the reader.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "sim/rng.hh"
#include "stats/trace.hh"
#include "temp_path.hh"

namespace dtsim {
namespace {

constexpr std::size_t kRecords = 3;

RequestTraceEvent
sampleEvent(std::uint64_t n)
{
    RequestTraceEvent ev;
    ev.completed = 1000 * (n + 1);
    ev.disk = static_cast<std::uint32_t>(n % 4);
    ev.lba = 64 * n;
    ev.blocks = 8;
    ev.isWrite = (n % 2) == 1;
    ev.outcome = static_cast<TraceOutcome>(n % 3);
    ev.queue = 11 * n;
    ev.seek = 5;
    ev.rotation = 6;
    ev.transfer = 7;
    ev.bus = 8;
    ev.latency = 50 + n;
    ev.degraded = n == 2;
    return ev;
}

std::string
recordBytes(const BinaryTraceRecord& rec)
{
    return std::string(reinterpret_cast<const char*>(&rec), sizeof(rec));
}

/** A trace: preamble, marker, then kRecords records with `last` as
 * the final one. */
std::string
traceBytes(const BinaryTraceRecord& last)
{
    std::string s = "# dtsim effective config\n#conf trace.sample = 1\n";
    s += kBinaryTraceMarker;
    s += "\n";
    for (std::size_t i = 0; i + 1 < kRecords; ++i)
        s += recordBytes(packTraceRecord(sampleEvent(i)));
    s += recordBytes(last);
    return s;
}

BinaryTraceRecord
lastRecord()
{
    return packTraceRecord(sampleEvent(kRecords - 1));
}

void
writeFile(const std::string& path, const std::string& bytes)
{
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
}

/** Read `bytes` back as a trace; returns the reader's result and
 * leaves its warning text in `warning`. */
bool
readBytes(const std::string& bytes, std::string& warning,
          std::vector<RequestTraceEvent>* events = nullptr)
{
    const std::string path = test::tempPath("trace.bin");
    writeFile(path, bytes);
    std::vector<RequestTraceEvent> local;
    ::testing::internal::CaptureStderr();
    const bool ok = readTraceFile(path, events ? *events : local);
    warning = ::testing::internal::GetCapturedStderr();
    std::remove(path.c_str());
    return ok;
}

/** Expect `bytes` to be rejected with a warning naming the file and
 * containing `detail`. */
void
expectRejected(const std::string& bytes, const std::string& detail)
{
    std::string warning;
    EXPECT_FALSE(readBytes(bytes, warning));
    EXPECT_NE(warning.find(test::tempPath("trace.bin")),
              std::string::npos)
        << warning;
    EXPECT_NE(warning.find(detail), std::string::npos) << warning;
}

TEST(BinaryTraceInput, WellFormedTraceReadsEveryRecord)
{
    std::string warning;
    std::vector<RequestTraceEvent> events;
    ASSERT_TRUE(readBytes(traceBytes(lastRecord()), warning,
                          &events))
        << warning;
    EXPECT_TRUE(warning.empty()) << warning;
    ASSERT_EQ(events.size(), kRecords);
    for (std::size_t i = 0; i < kRecords; ++i)
        EXPECT_EQ(traceRecordToJsonl(packTraceRecord(events[i])),
                  traceRecordToJsonl(packTraceRecord(sampleEvent(i))));
}

TEST(BinaryTraceInput, MissingFileIsRejected)
{
    std::vector<RequestTraceEvent> events;
    const std::string path = test::tempPath("absent.bin");
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(readTraceFile(path, events));
    const std::string warning = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(warning.find(path), std::string::npos) << warning;
}

TEST(BinaryTraceInput, EmptyFileIsRejected)
{
    expectRejected("", "not a binary trace");
}

TEST(BinaryTraceInput, PreambleWithoutMarkerIsRejected)
{
    expectRejected("# dtsim effective config\n#conf trace.seed = 1\n",
                   "not a binary trace");
}

TEST(BinaryTraceInput, JsonlFileIsRejected)
{
    // The --to-jsonl view is output only; the reader refuses it.
    std::string jsonl = "# dtsim effective config\n";
    for (std::size_t i = 0; i < kRecords; ++i)
        jsonl += traceRecordToJsonl(packTraceRecord(sampleEvent(i)));
    expectRejected(jsonl, ":2: not a binary trace");
}

TEST(BinaryTraceInput, GarbageTextIsRejected)
{
    expectRejected("hello, trace\n\x01\x02\x03 not records\n",
                   ":1: not a binary trace");
}

TEST(BinaryTraceInput, TruncatedFinalRecordIsRejected)
{
    for (std::size_t keep : {1u, 32u, 63u}) {
        SCOPED_TRACE(keep);
        std::string bytes = traceBytes(lastRecord());
        bytes.resize(bytes.size() - sizeof(BinaryTraceRecord) + keep);
        expectRejected(bytes,
                       "record " + std::to_string(kRecords - 1) +
                           " truncated (" + std::to_string(keep) +
                           " of 64 bytes)");
    }
}

TEST(BinaryTraceInput, UnknownOutcomeIsRejected)
{
    BinaryTraceRecord rec = lastRecord();
    rec.outcome = static_cast<std::uint8_t>(TraceOutcome::Hdc) + 1;
    expectRejected(traceBytes(rec),
                   "record " + std::to_string(kRecords - 1) +
                       ": unknown outcome");
}

TEST(BinaryTraceInput, UnknownFlagBitsAreRejected)
{
    for (unsigned bit = 2; bit < 8; ++bit) {
        SCOPED_TRACE(bit);
        BinaryTraceRecord rec = lastRecord();
        rec.flags = static_cast<std::uint8_t>(rec.flags | (1u << bit));
        expectRejected(traceBytes(rec),
                       "record " + std::to_string(kRecords - 1) +
                           ": unknown flag bits");
    }
}

TEST(BinaryTraceInput, NonzeroReservedWordIsRejected)
{
    BinaryTraceRecord rec = lastRecord();
    rec.reserved = 1;
    expectRejected(traceBytes(rec),
                   "record " + std::to_string(kRecords - 1) +
                       ": nonzero reserved word");
}

TEST(BinaryTraceInput, UnusedWordIsIgnored)
{
    // Bytes 56-59 held media-error and retry counts in older traces;
    // the reader still accepts such a record and drops the word.
    BinaryTraceRecord rec = lastRecord();
    rec.unused = 0x00020003u;
    std::string warning;
    std::vector<RequestTraceEvent> events;
    ASSERT_TRUE(readBytes(traceBytes(rec), warning, &events)) << warning;
    ASSERT_EQ(events.size(), kRecords);
    EXPECT_EQ(packTraceRecord(events.back()).unused, 0u);
    EXPECT_EQ(traceRecordToJsonl(packTraceRecord(events.back())),
              traceRecordToJsonl(lastRecord()));
}

TEST(BinaryTraceInput, SeededCorruptionNeverCrashes)
{
    // Flip random bytes and cut at random lengths: the reader either
    // accepts (records only from the intact prefix) or rejects with a
    // warning naming the file, and never crashes.
    const std::string good = traceBytes(lastRecord());
    Rng rng(0x7ace);
    for (int iter = 0; iter < 200; ++iter) {
        std::string bytes = good;
        const std::uint64_t flips = 1 + rng.below(4);
        for (std::uint64_t f = 0; f < flips; ++f)
            bytes[rng.below(bytes.size())] =
                static_cast<char>(rng.below(256));
        if (rng.chance(0.5))
            bytes.resize(rng.below(bytes.size() + 1));
        std::string warning;
        std::vector<RequestTraceEvent> events;
        if (readBytes(bytes, warning, &events)) {
            EXPECT_LE(events.size(), kRecords) << "iteration " << iter;
        } else {
            EXPECT_NE(warning.find(test::tempPath("trace.bin")),
                      std::string::npos)
                << "iteration " << iter << ": " << warning;
        }
    }
}

} // namespace
} // namespace dtsim
