#include "stats_dump.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace perfbench {

std::string
stripVolatile(const std::string& dump)
{
    std::istringstream in(dump);
    std::string out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("# runtime:", 0) == 0 ||
            line.rfind("# trace:", 0) == 0)
            continue;
        out += line;
        out += '\n';
    }
    return out;
}

std::uint64_t
fnv1a(const std::string& text, std::uint64_t h)
{
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

StatMap
parseStats(const std::string& dump)
{
    StatMap s;
    std::istringstream in(dump);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("sim.", 0) != 0)
            continue;
        std::istringstream fields(line);
        std::string name;
        double value = 0.0;
        if (fields >> name >> value)
            s[name] = value;
    }
    return s;
}

double
stat(const StatMap& s, const std::string& name)
{
    const auto it = s.find(name);
    return it == s.end() ? 0.0 : it->second;
}

namespace {

/**
 * The dump prints values with six significant digits, so a sum of a
 * million or more can differ from its exact value in the last printed
 * digit; smaller sums compare exactly.
 */
double
printSlack(double lhs, double rhs)
{
    const double m = std::max(std::abs(lhs), std::abs(rhs));
    return m >= 1e6 ? m * 1e-5 : 0.0;
}

bool
same(double lhs, double rhs)
{
    return std::abs(lhs - rhs) <= printSlack(lhs, rhs);
}

} // namespace

std::vector<std::string>
checkIdentities(const StatMap& s, std::uint64_t trace_records)
{
    std::vector<std::string> bad;
    auto fail = [&](const std::string& what, double lhs, double rhs) {
        std::ostringstream os;
        os << what << " (" << lhs << " vs " << rhs << ")";
        bad.push_back(os.str());
    };

    unsigned disks = 0;
    for (;; ++disks) {
        const std::string d = "sim.disk" + std::to_string(disks) + ".";
        if (!s.count(d + "reads"))
            break;
        auto v = [&](const char* n) { return stat(s, d + n); };

        const double requests = v("reads") + v("writes");
        const double served = v("cache_hit_requests") +
                              v("media_accesses") - v("flush_writes");
        if (!same(requests, served))
            fail(d + "reads+writes == cache_hit_requests+media_accesses"
                     "-flush_writes",
                 requests, served);

        const double blocks = v("read_blocks") + v("write_blocks");
        const double from = v("hdc_hit_blocks") + v("ra_hit_blocks") +
                            v("media_blocks");
        if (!same(blocks, from))
            fail(d + "read_blocks+write_blocks == hdc_hit_blocks+"
                     "ra_hit_blocks+media_blocks",
                 blocks, from);

        if (!same(v("sched.pushes"), v("sched.pops")))
            fail(d + "sched.pushes == sched.pops", v("sched.pushes"),
                 v("sched.pops"));
        if (!same(v("sched.pops"), v("mech.accesses")))
            fail(d + "sched.pops == mech.accesses", v("sched.pops"),
                 v("mech.accesses"));

        const double spec = v("read_ahead.spec_used") +
                            v("read_ahead.spec_wasted");
        const double inserted = v("read_ahead.spec_inserted");
        if (inserted + printSlack(inserted, spec) < spec)
            fail(d + "spec_inserted >= spec_used+spec_wasted",
                 inserted, spec);
    }
    if (disks == 0)
        bad.push_back("dump has no per-disk stats");

    const double requests = stat(s, "sim.requests");
    if (!same(requests, static_cast<double>(trace_records)))
        fail("sim.requests == trace records", requests,
             static_cast<double>(trace_records));
    return bad;
}

} // namespace perfbench
