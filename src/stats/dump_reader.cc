#include "stats/dump_reader.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace dtsim {
namespace stats {

namespace {

bool
startsWith(std::string_view s, std::string_view prefix)
{
    return s.substr(0, prefix.size()) == prefix;
}

/** The line's value as a number; NaN when it is not one. */
double
number(const std::string& text)
{
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    return end != text.c_str() && *end == '\0'
               ? v
               : std::numeric_limits<double>::quiet_NaN();
}

std::string
fmt(const char* f, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, f, v);
    return buf;
}

} // namespace

std::string
stripVolatile(const std::string& dump)
{
    std::istringstream in(dump);
    std::string out;
    std::string line;
    while (std::getline(in, line)) {
        if (startsWith(line, "# runtime:") || startsWith(line, "# trace:"))
            continue;
        out += line;
        out += '\n';
    }
    return out;
}

std::uint64_t
fnv1a(std::string_view text, std::uint64_t seed)
{
    std::uint64_t h = seed;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

ParsedDump
parseDump(const std::string& text)
{
    ParsedDump d;
    std::istringstream in(text);
    std::string line;
    std::string block;          // "[...] " prefix of the current block
    bool in_fault = false;      // the fault header's snapshot follows
    while (std::getline(in, line)) {
        if (startsWith(line, "#conf ")) {
            const std::size_t eq = line.find(" = ", 6);
            if (eq != std::string::npos)
                d.conf.emplace_back(line.substr(6, eq - 6),
                                    line.substr(eq + 3));
        } else if (startsWith(line, "# fault event @")) {
            // "# fault event @T: what" -> block "[fault: what]".
            const std::size_t colon = line.find(": ");
            const std::string what =
                colon == std::string::npos ? "" : line.substr(colon + 2);
            block = "[fault: " + what + "] ";
            d.stats[block + "@tick"] = line.substr(15, colon - 15);
            in_fault = true;
        } else if (startsWith(line, "# snapshot @")) {
            // A fault event's own snapshot stays in its block.
            if (!in_fault)
                block = "[snapshot @" +
                        line.substr(12, line.find(' ', 12) - 12) + "] ";
            in_fault = false;
        } else if (startsWith(line, "# dtsim stats dump")) {
            block.clear();
            in_fault = false;
        } else if (!line.empty() && line[0] != '#') {
            std::istringstream fields(line);
            std::string name, value;
            if (fields >> name >> value)
                d.stats[block + name] = value;
        }
    }
    return d;
}

std::vector<std::string>
diffDumps(const ParsedDump& a, const ParsedDump& b)
{
    static const std::string kAbsent = "(absent)";
    std::vector<std::string> out;

    const std::map<std::string, std::string> conf_a(a.conf.begin(),
                                                    a.conf.end());
    const std::map<std::string, std::string> conf_b(b.conf.begin(),
                                                    b.conf.end());
    for (const auto& [key, va] : a.conf) {
        const auto it = conf_b.find(key);
        const std::string& vb = it == conf_b.end() ? kAbsent : it->second;
        if (va != vb)
            out.push_back("#conf " + key + ": " + va + " -> " + vb);
    }
    for (const auto& [key, vb] : b.conf)
        if (!conf_a.count(key))
            out.push_back("#conf " + key + ": " + kAbsent + " -> " + vb);

    struct Moved
    {
        double rel;     // |relative change|; infinity when undefined
        std::string line;
    };
    std::vector<Moved> moved;
    const auto note = [&](const std::string& key, const std::string& va,
                          const std::string& vb) {
        if (va == vb)
            return;
        const double x = number(va);
        const double y = number(vb);
        double rel = std::numeric_limits<double>::infinity();
        std::string line = key + " " + va + " -> " + vb;
        if (!std::isnan(x) && !std::isnan(y)) {
            line += " (" + fmt("%+.6g", y - x);
            if (x != 0.0) {
                rel = std::fabs((y - x) / x);
                line += fmt(", %+.3g%%", 100.0 * (y - x) / std::fabs(x));
            }
            line += ")";
        }
        moved.push_back(Moved{rel, std::move(line)});
    };
    for (const auto& [key, va] : a.stats) {
        const auto it = b.stats.find(key);
        note(key, va, it == b.stats.end() ? kAbsent : it->second);
    }
    for (const auto& [key, vb] : b.stats)
        if (!a.stats.count(key))
            note(key, kAbsent, vb);

    std::sort(moved.begin(), moved.end(),
              [](const Moved& l, const Moved& r) {
                  return l.rel != r.rel ? l.rel > r.rel : l.line < r.line;
              });
    for (Moved& m : moved)
        out.push_back(std::move(m.line));
    return out;
}

} // namespace stats
} // namespace dtsim
