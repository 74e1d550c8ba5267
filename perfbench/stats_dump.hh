/**
 * @file
 * Reading a dtsim stats dump by stat name: the volatile-line filter
 * the determinism check and model digest use, a name -> value parser,
 * and the conservation identities every run must satisfy.
 */

#ifndef DTSIM_PERFBENCH_STATS_DUMP_HH
#define DTSIM_PERFBENCH_STATS_DUMP_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using StatMap = std::map<std::string, double>;

/**
 * The dump without its volatile lines ("# runtime:" and "# trace:"),
 * which carry host timings and writer-thread drop counts.
 */
std::string stripVolatile(const std::string& dump);

/** 64-bit FNV-1a of `text`, continuing from `h`. */
std::uint64_t fnv1a(const std::string& text,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

/** Every "name value" stat line of a dump; comment lines are skipped. */
StatMap parseStats(const std::string& dump);

/** `name`'s value, or 0 when the dump does not carry it. */
double stat(const StatMap& s, const std::string& name);

/**
 * Check the dump's conservation identities; returns one message per
 * violation (empty = all hold):
 *  - per disk: reads + writes ==
 *    cache_hit_requests + media_accesses - flush_writes;
 *  - per disk: read_blocks + write_blocks ==
 *    hdc_hit_blocks + ra_hit_blocks + media_blocks;
 *  - per disk: sched.pushes == sched.pops == mech.accesses;
 *  - per disk: read_ahead.spec_inserted >= spec_used + spec_wasted;
 *  - sim.requests == `trace_records`.
 */
std::vector<std::string> checkIdentities(const StatMap& s,
                                         std::uint64_t trace_records);

} // namespace perfbench

#endif // DTSIM_PERFBENCH_STATS_DUMP_HH
