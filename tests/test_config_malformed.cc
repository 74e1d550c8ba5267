/**
 * @file
 * Seeded malformed-input suites for config files and sweep specs.
 *
 * Each shipped example config (the .conf files in examples/ and
 * examples/sweeps/) is mutated with a fixed seed: a dropped '=', a truncated line, junk,
 * huge or negative values, unknown keys, duplicated axes, empty value
 * lists, deleted and doubled lines, and any parameter set to junk. Every mutant must either load or
 * be refused with an "origin:line: why" error naming a line of the
 * mutant; none may reach a fatal or an abort. Mutants that load go on
 * through validateConfig (and expandSweep for sweeps), which must
 * report problems as errors too. The ASan/UBSan job runs this suite,
 * so an out-of-range read, an overflow or a division by zero on any
 * of these paths fails there.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "config/config_file.hh"
#include "config/sim_config.hh"
#include "config/sweep_spec.hh"
#include "sim/rng.hh"

namespace dtsim {
namespace {

namespace fs = std::filesystem;

constexpr int kMutantsPerFile = 400;

std::vector<std::string>
splitLines(const std::string& text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

std::string
joinLines(const std::vector<std::string>& lines)
{
    std::string out;
    for (const std::string& l : lines)
        out += l + "\n";
    return out;
}

/** The .conf files directly under `dir`, sorted by name. */
std::vector<fs::path>
confFiles(const fs::path& dir)
{
    std::vector<fs::path> out;
    for (const fs::directory_entry& e : fs::directory_iterator(dir))
        if (e.is_regular_file() && e.path().extension() == ".conf")
            out.push_back(e.path());
    std::sort(out.begin(), out.end());
    return out;
}

std::string
slurp(const fs::path& path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** True for a line the loaders read (not blank, not a comment). */
bool
isAssignment(const std::string& line)
{
    const auto it = std::find_if(line.begin(), line.end(), [](char c) {
        return !std::isspace(static_cast<unsigned char>(c));
    });
    return it != line.end() && *it != '#';
}

const char* const kJunkValues[] = {
    "",
    "abc",
    "-1",
    "-0",
    "-4096",
    "1e999",
    "-1e999",
    "nan",
    "inf",
    "0x10",
    "1.5.2",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999999",
    "1e308",
    "4.9e-324",
    "0",
    "1,",
    ",",
    ", , ,",
    "segm, for, for",
    "\t",
    "\x01\x7f",
    "on",
};

/** Replace everything after the line's first '=' with `value`. */
std::string
withValue(const std::string& line, const std::string& value)
{
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos)
        return line + " = " + value;
    return line.substr(0, eq + 1) + " " + value;
}

/** Every registered parameter name. */
std::vector<std::string>
paramNames()
{
    SimulationConfig sim;
    config::ParamRegistry reg;
    bindParams(reg, sim);
    std::vector<std::string> names;
    for (const config::ParamEntry& e : reg.entries())
        names.push_back(e.name);
    return names;
}

/** Apply one to three seeded mutations to `lines`. */
std::vector<std::string>
mutate(std::vector<std::string> lines, Rng& rng)
{
    static const std::vector<std::string> names = paramNames();
    std::vector<std::size_t> live;
    for (std::size_t i = 0; i < lines.size(); ++i)
        if (isAssignment(lines[i]))
            live.push_back(i);

    const int edits = 1 + static_cast<int>(rng.below(3));
    for (int e = 0; e < edits && !lines.empty(); ++e) {
        const std::size_t i =
            !live.empty() && rng.chance(0.9)
                ? live[rng.below(live.size())]
                : rng.below(lines.size());
        if (i >= lines.size())
            continue;
        std::string& l = lines[i];
        const std::size_t eq = l.find('=');
        switch (rng.below(12)) {
          case 0:  // Drop the '='.
            if (eq != std::string::npos)
                l.erase(eq, 1);
            break;
          case 1:  // Truncate the line.
            l.resize(rng.below(l.size() + 1));
            break;
          case 2:  // Junk value.
          case 3:
            l = withValue(l, kJunkValues[rng.below(
                                 std::size(kJunkValues))]);
            break;
          case 4: {  // Negate every value.
            if (eq == std::string::npos)
                break;
            std::string v = l.substr(eq + 1);
            std::string neg;
            for (std::size_t p = 0; p < v.size(); ++p) {
                if (p == 0 || v[p - 1] == ',' || v[p - 1] == '=')
                    neg += "-";
                neg += v[p];
            }
            l = l.substr(0, eq + 1) + neg;
            break;
          }
          case 5: {  // Huge value: append digits.
            l += std::string(1 + rng.below(30), '9');
            break;
          }
          case 6:  // Unknown key.
            if (eq != std::string::npos)
                l.insert(eq, rng.chance(0.5) ? "_x" : ".bogus ");
            else
                l = "no.such.key = 1";
            break;
          case 7:  // Duplicate the line (an axis twice, a key twice).
            lines.insert(lines.begin() + static_cast<long>(i), l);
            break;
          case 8:  // Empty value list.
            l = withValue(l, rng.chance(0.5) ? "" : " , ");
            break;
          case 9:  // Delete the line.
            lines.erase(lines.begin() + static_cast<long>(i));
            break;
          case 10:  // Any parameter: zero (a divisor?) or junk.
            lines.insert(lines.begin() + static_cast<long>(i),
                         names[rng.below(names.size())] + " = " +
                             (rng.chance(0.5)
                                  ? "0"
                                  : kJunkValues[rng.below(
                                        std::size(kJunkValues))]));
            break;
          default:  // Turn a line into an axis, or an axis into a line.
            if (l.compare(0, 6, "sweep ") == 0)
                l.erase(0, 6);
            else
                l = (rng.chance(0.5) ? "sweep " : "sweep") + l;
            break;
        }
        // Indices shifted; recompute the assignment lines.
        live.clear();
        for (std::size_t k = 0; k < lines.size(); ++k)
            if (isAssignment(lines[k]))
                live.push_back(k);
    }
    return lines;
}

/**
 * Check that `err` reads "<origin>:<line>: <why>" with a line inside
 * the mutant.
 */
void
expectLineError(const std::string& err, const std::string& origin,
                std::size_t lines, const std::string& text)
{
    const std::string prefix = origin + ":";
    ASSERT_EQ(err.compare(0, prefix.size(), prefix), 0)
        << err << "\n--- mutant ---\n" << text;
    std::size_t p = prefix.size();
    std::size_t line = 0;
    const std::size_t digits_at = p;
    while (p < err.size() &&
           std::isdigit(static_cast<unsigned char>(err[p])))
        line = line * 10 + static_cast<std::size_t>(err[p++] - '0');
    ASSERT_GT(p, digits_at) << err << "\n--- mutant ---\n" << text;
    ASSERT_EQ(err.compare(p, 2, ": "), 0)
        << err << "\n--- mutant ---\n" << text;
    EXPECT_GE(line, 1u) << err;
    EXPECT_LE(line, lines) << err;
    EXPECT_GT(err.size(), p + 2) << "empty reason: " << err;
}

/** Loaded and refused mutants of one suite. */
struct Tally
{
    int loaded = 0;
    int refused = 0;
};

const fs::path kExamples = fs::path(DTSIM_SOURCE_DIR) / "examples";

TEST(ConfigMalformed, ExampleConfigMutants)
{
    const std::vector<fs::path> files = confFiles(kExamples);
    ASSERT_FALSE(files.empty());
    Tally tally;
    for (std::size_t f = 0; f < files.size(); ++f) {
        const std::vector<std::string> lines = splitLines(slurp(files[f]));
        const std::string origin = files[f].filename().string();
        Rng rng(0xc0f1 + f);
        for (int m = 0; m < kMutantsPerFile; ++m) {
            const std::vector<std::string> mutant = mutate(lines, rng);
            const std::string text = joinLines(mutant);
            SimulationConfig sim;
            config::ParamRegistry reg;
            bindParams(reg, sim);
            std::string err;
            if (!config::loadConfigText(text, origin, reg, err)) {
                ++tally.refused;
                expectLineError(err, origin, mutant.size(), text);
                if (::testing::Test::HasFatalFailure())
                    return;
                continue;
            }
            ++tally.loaded;
            for (const std::string& e : validateConfig(sim))
                EXPECT_FALSE(e.empty()) << text;
        }
    }
    // The mutations must exercise both outcomes.
    EXPECT_GT(tally.loaded, 0);
    EXPECT_GT(tally.refused, 0);
}

TEST(ConfigMalformed, OctalNumberNamesItsLine)
{
    // "010" would read as 8 under strtoull's base 0; it is refused at
    // its file:line instead.
    SimulationConfig sim;
    config::ParamRegistry reg;
    bindParams(reg, sim);
    std::string err;
    EXPECT_FALSE(config::loadConfigText(
        "workload.kind = web\nsystem.disks = 010\n", "octal.conf", reg,
        err));
    EXPECT_EQ(err.rfind("octal.conf:2: ", 0), 0u) << err;
    EXPECT_NE(err.find("leading zero in '010'"), std::string::npos) << err;
}

TEST(ConfigMalformed, RemovedStatsStreamKeysNameTheirLine)
{
    // The live stat stream was folded into the stats dump's periodic
    // snapshots; a config still setting its keys fails at its line
    // instead of running without the output it asked for.
    for (const char* line :
         {"stats.stream = x", "stats.stream_interval_ticks = 5"}) {
        SimulationConfig sim;
        config::ParamRegistry reg;
        bindParams(reg, sim);
        std::string err;
        EXPECT_FALSE(config::loadConfigText(
            std::string("run.stats_interval_ticks = 5\n") + line + "\n",
            "old.conf", reg, err))
            << line;
        EXPECT_EQ(err.rfind("old.conf:2: ", 0), 0u) << err;
        EXPECT_NE(err.find("unknown parameter"), std::string::npos)
            << err;
    }
}

TEST(ConfigMalformed, RemovedFaultKeysNameTheirLine)
{
    // Media errors, retries, remaps, stalls and their RNG seed were
    // removed from the fault model; a config still setting one of
    // their keys fails at its line instead of running without the
    // fault it asked for.
    for (const char* line :
         {"fault.media_error_rate = 0.01", "fault.bad_blocks = 0:7",
          "fault.max_retries = 3", "fault.remap_penalty_ms = 2",
          "fault.timeout_rate = 0.01", "fault.stall_windows = 1000:500",
          "fault.backoff_us = 100", "fault.backoff_max_us = 10000",
          "fault.seed = 1"}) {
        SimulationConfig sim;
        config::ParamRegistry reg;
        bindParams(reg, sim);
        std::string err;
        EXPECT_FALSE(config::loadConfigText(
            std::string("fault.kill_at_ticks = 1000000\n") + line + "\n",
            "old.conf", reg, err))
            << line;
        EXPECT_EQ(err.rfind("old.conf:2: ", 0), 0u) << err;
        EXPECT_NE(err.find("unknown parameter"), std::string::npos)
            << err;
    }

    // A dump header written while those keys existed: every one is
    // printed, so loading it stops at the first #conf key the registry
    // no longer knows. The removed HDC keys come before the fault
    // group; with their lines dropped the load stops at the first
    // removed fault key.
    const fs::path old_header = fs::path(DTSIM_SOURCE_DIR) / "tests" /
                                "data" /
                                "degraded_header_with_fault_keys.conf";
    std::vector<std::string> lines = splitLines(slurp(old_header));
    const auto expectStopsAtFirstUnknown =
        [](const std::vector<std::string>& header,
           const std::string& want_key) {
            SimulationConfig sim;
            config::ParamRegistry reg;
            bindParams(reg, sim);
            std::size_t first = 0;
            std::string key;
            for (; first < header.size(); ++first) {
                if (header[first].rfind("#conf ", 0) != 0)
                    continue;
                key = header[first].substr(
                    6, header[first].find(' ', 6) - 6);
                if (!reg.has(key))
                    break;
            }
            ASSERT_LT(first, header.size());
            EXPECT_EQ(key, want_key);
            std::string err;
            EXPECT_FALSE(config::loadConfigText(joinLines(header),
                                                "old.txt", reg, err));
            EXPECT_EQ(err.rfind("old.txt:" + std::to_string(first + 1) +
                                    ": unknown parameter '" + key + "'",
                                0),
                      0u)
                << err;
        };
    expectStopsAtFirstUnknown(lines, "system.victim_ghost_blocks");
    const auto removedHdcKey = [](const std::string& l) {
        for (const char* key :
             {"#conf system.victim_ghost_blocks ", "#conf hdc.ghost_blocks ",
              "#conf system.flush_hdc_at_end "})
            if (l.rfind(key, 0) == 0)
                return true;
        return false;
    };
    lines.erase(std::remove_if(lines.begin(), lines.end(), removedHdcKey),
                lines.end());
    expectStopsAtFirstUnknown(lines, "fault.media_error_rate");
}

TEST(ConfigMalformed, RemovedHdcKeysNameTheirLine)
{
    // The victim-cache HDC policy and the flush_hdc_at_end switch were
    // removed; a config file or a dump header still setting one of
    // their keys, or asking for the victim policy, fails at its line
    // instead of running some other policy.
    const std::pair<const char*, const char*> cases[] = {
        {"hdc.ghost_blocks = 256", "unknown parameter"},
        {"system.victim_ghost_blocks = 256", "unknown parameter"},
        {"system.flush_hdc_at_end = false", "unknown parameter"},
        {"hdc.policy = victim", "unknown value 'victim'"},
        {"system.hdc_policy = victim", "unknown value 'victim'"},
    };
    for (const auto& [line, why] : cases) {
        for (const char* prefix : {"", "#conf "}) {
            SimulationConfig sim;
            config::ParamRegistry reg;
            bindParams(reg, sim);
            std::string err;
            EXPECT_FALSE(config::loadConfigText(
                std::string(prefix) +
                    "hdc.budget_bytes_per_disk = 1048576\n" + prefix +
                    line + "\n",
                "old.conf", reg, err))
                << prefix << line;
            EXPECT_EQ(err.rfind("old.conf:2: ", 0), 0u) << err;
            EXPECT_NE(err.find(why), std::string::npos) << err;
        }
    }
}

TEST(ConfigMalformed, SweepSpecMutants)
{
    const std::vector<fs::path> files = confFiles(kExamples / "sweeps");
    ASSERT_FALSE(files.empty());
    Tally tally;
    int expanded_points = 0;
    for (std::size_t f = 0; f < files.size(); ++f) {
        const std::vector<std::string> lines = splitLines(slurp(files[f]));
        const std::string origin = files[f].filename().string();
        Rng rng(0x5eed + f);
        for (int m = 0; m < kMutantsPerFile; ++m) {
            const std::vector<std::string> mutant = mutate(lines, rng);
            const std::string text = joinLines(mutant);
            SweepSpec spec;
            std::string err;
            if (!loadSweepText(text, origin, spec, err)) {
                ++tally.refused;
                expectLineError(err, origin, mutant.size(), text);
                if (::testing::Test::HasFatalFailure())
                    return;
                continue;
            }
            ++tally.loaded;
            // Every axis value was checked at load, so expansion
            // succeeds; infeasible points carry their reason.
            const std::vector<SweepPoint> points = expandSweep(spec, err);
            ASSERT_EQ(points.size(), spec.points()) << err << "\n" << text;
            for (const SweepPoint& p : points) {
                EXPECT_EQ(p.feasible, p.whyNot.empty()) << text;
                EXPECT_EQ(p.coords.size(), spec.axes.size());
            }
            expanded_points += static_cast<int>(points.size());
        }
    }
    EXPECT_GT(tally.loaded, 0);
    EXPECT_GT(tally.refused, 0);
    EXPECT_GT(expanded_points, 0);
}

} // namespace
} // namespace dtsim
