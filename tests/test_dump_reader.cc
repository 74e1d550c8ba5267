/** @file Tests for reading stats dumps back (stats/dump_reader.hh). */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "stats/dump_reader.hh"

namespace dtsim {
namespace {

const char kDump[] =
    "#conf system.disks = 4\n"
    "#conf run.trace = \n"
    "# end of effective config\n"
    "# fault event @1000: failure disk 1\n"
    "# snapshot @1050 (0.00105 ms)\n"
    "sim.requests 3 # disk requests completed\n"
    "# snapshot @2000 (0.002 ms)\n"
    "sim.requests 7 # disk requests completed\n"
    "# dtsim stats dump -- every name is documented in docs/METRICS.md\n"
    "# runtime: events=10 (volatile; excluded from determinism "
    "comparisons)\n"
    "sim.requests 9 # disk requests completed\n"
    "sim.service.latency_ms.bucket[0,5) 4\n";

TEST(DumpReader, KeysStatsByTheirBlock)
{
    const stats::ParsedDump d = stats::parseDump(kDump);
    ASSERT_EQ(d.conf.size(), 2u);
    EXPECT_EQ(d.conf[0].first, "system.disks");
    EXPECT_EQ(d.conf[0].second, "4");
    EXPECT_EQ(d.conf[1].second, "");
    // The fault event's own snapshot stays in the fault block, so it
    // cannot collide with a periodic snapshot or the final dump.
    EXPECT_EQ(d.stats.at("[fault: failure disk 1] @tick"), "1000");
    EXPECT_EQ(d.stats.at("[fault: failure disk 1] sim.requests"), "3");
    EXPECT_EQ(d.stats.at("[snapshot @2000] sim.requests"), "7");
    EXPECT_EQ(d.stats.at("sim.requests"), "9");
    EXPECT_EQ(d.stats.at("sim.service.latency_ms.bucket[0,5)"), "4");
    EXPECT_EQ(d.stats.size(), 5u);
    EXPECT_EQ(stats::stripVolatile(kDump).find("# runtime:"),
              std::string::npos);
}

TEST(DumpReader, DiffListsConfThenLargestRelativeChange)
{
    std::string moved = kDump;
    moved.replace(moved.find("disks = 4"), 9, "disks = 8");
    moved.replace(moved.find("sim.requests 9"), 14, "sim.requests 10");
    moved.replace(moved.find("bucket[0,5) 4"), 13, "bucket[0,5) 2");
    moved += "sim.new_stat 1\n";
    EXPECT_TRUE(stats::diffDumps(stats::parseDump(kDump),
                                 stats::parseDump(kDump))
                    .empty());
    EXPECT_EQ(stats::diffDumps(stats::parseDump(kDump),
                               stats::parseDump(moved)),
              (std::vector<std::string>{
                  "#conf system.disks: 4 -> 8",
                  "sim.new_stat (absent) -> 1",
                  "sim.service.latency_ms.bucket[0,5) 4 -> 2 (-2, -50%)",
                  "sim.requests 9 -> 10 (+1, +11.1%)",
              }));
}

TEST(DumpReader, StripVolatileDropsOnlyRuntimeAndTraceLines)
{
    const std::string dump = "#conf system.disks = 4\n"
                             "# trace: records=3 sampled_out=1\n"
                             "# snapshot @10 (0.00001 ms)\n"
                             "sim.requests 1\n"
                             "# runtime: events=2\n"
                             "#  runtime: kept, not the prefix\n"
                             "sim.requests 2";
    EXPECT_EQ(stats::stripVolatile(dump),
              "#conf system.disks = 4\n"
              "# snapshot @10 (0.00001 ms)\n"
              "sim.requests 1\n"
              "#  runtime: kept, not the prefix\n"
              "sim.requests 2\n");
    EXPECT_EQ(stats::stripVolatile(""), "");
}

TEST(DumpReader, Fnv1aMatchesTheReferenceVectors)
{
    EXPECT_EQ(stats::fnv1a(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(stats::fnv1a("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(stats::fnv1a("foobar"), 0x85944171f73967e8ull);
}

TEST(DumpReader, SkipsLinesThatAreNotStats)
{
    const stats::ParsedDump d = stats::parseDump(
        "#conf malformed-without-equals\n"
        "# a comment\n"
        "\n"
        "lonely_name\n"
        "sim.x 1 # trailing comment\n");
    EXPECT_TRUE(d.conf.empty());
    ASSERT_EQ(d.stats.size(), 1u);
    EXPECT_EQ(d.stats.at("sim.x"), "1");
}

TEST(DumpReader, DiffNamesConfKeysMissingOnEitherSide)
{
    const stats::ParsedDump a =
        stats::parseDump("#conf only.a = 1\n#conf both = x\n");
    const stats::ParsedDump b =
        stats::parseDump("#conf both = x\n#conf only.b = 2\n");
    EXPECT_EQ(stats::diffDumps(a, b),
              (std::vector<std::string>{
                  "#conf only.a: 1 -> (absent)",
                  "#conf only.b: (absent) -> 2",
              }));
}

TEST(DumpReader, ChangesWithoutARelativeSizeSortFirst)
{
    // A change from 0, a vanished stat and a non-numeric value have no
    // relative change, so they lead, in name order.
    const stats::ParsedDump a = stats::parseDump("sim.big 100\n"
                                                 "sim.gone 3\n"
                                                 "sim.mode fast\n"
                                                 "sim.zero 0\n");
    const stats::ParsedDump b = stats::parseDump("sim.big 150\n"
                                                 "sim.mode slow\n"
                                                 "sim.zero 5\n");
    EXPECT_EQ(stats::diffDumps(a, b),
              (std::vector<std::string>{
                  "sim.gone 3 -> (absent)",
                  "sim.mode fast -> slow",
                  "sim.zero 0 -> 5 (+5)",
                  "sim.big 100 -> 150 (+50, +50%)",
              }));
}

TEST(DumpReader, MovedFaultEventIsOneChangedTick)
{
    std::string moved = kDump;
    moved.replace(moved.find("@1000"), 5, "@1200");
    EXPECT_EQ(stats::diffDumps(stats::parseDump(kDump),
                               stats::parseDump(moved)),
              (std::vector<std::string>{
                  "[fault: failure disk 1] @tick 1000 -> 1200 (+200, +20%)",
              }));
}

} // namespace
} // namespace dtsim
