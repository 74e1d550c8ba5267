/**
 * @file
 * Reading a stats dump back (docs/METRICS.md describes the format):
 * the volatile-line filter every determinism comparison uses, the
 * FNV-1a digest of a dump, a parser that keys each stat by the block
 * it was printed in, and a diff of two parsed dumps
 * (`dtsim_cli --diff-stats A B`).
 */

#ifndef DTSIM_STATS_DUMP_READER_HH
#define DTSIM_STATS_DUMP_READER_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dtsim {
namespace stats {

/**
 * The dump without its volatile lines: "# runtime:" (host timings)
 * and "# trace:" (request-trace accounting, present only on traced
 * runs, so a traced dump compares equal to an untraced one).
 */
std::string stripVolatile(const std::string& dump);

/** The 64-bit FNV-1a offset basis: the hash of no bytes. */
constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ull;

/**
 * 64-bit FNV-1a of `text`. A running hash passes the previous result
 * as `seed`.
 */
std::uint64_t fnv1a(std::string_view text,
                    std::uint64_t seed = kFnv1aBasis);

/** One parsed stats dump. */
struct ParsedDump
{
    /** The "#conf key = value" header lines, in file order. */
    std::vector<std::pair<std::string, std::string>> conf;

    /**
     * Every "name value" stat line, value as printed. A stat of the
     * final dump is keyed by its name. One inside a periodic snapshot
     * is keyed "[snapshot @T] name". One inside a fault-event snapshot
     * is keyed "[fault: <event>] name", and that block also carries
     * "[fault: <event>] @tick", the tick the event happened at, so a
     * moved event shows as one changed value, not as a new block.
     */
    std::map<std::string, std::string> stats;
};

/** Parse a dump; lines that are neither "#conf", headers nor stats
 * are skipped. */
ParsedDump parseDump(const std::string& text);

/**
 * What differs from `a` to `b`, one line each. First every "#conf"
 * key whose value differs, in file order:
 *     #conf KEY: A -> B
 * then every stat that moved, largest relative change first:
 *     KEY A -> B (+ABS, +REL%)
 * A side that lacks the line reads "(absent)"; a change from 0 or
 * from or to an absent line has no relative change and sorts first.
 * Identical dumps give no lines.
 */
std::vector<std::string> diffDumps(const ParsedDump& a,
                                   const ParsedDump& b);

} // namespace stats
} // namespace dtsim

#endif // DTSIM_STATS_DUMP_READER_HH
