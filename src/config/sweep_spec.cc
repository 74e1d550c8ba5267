#include "config/sweep_spec.hh"

#include <cctype>
#include <fstream>
#include <sstream>

#include "config/config_file.hh"
#include "sim/logging.hh"

namespace dtsim {

namespace {

/** Grids beyond this are almost certainly a typo in an axis list. */
constexpr std::size_t kMaxPoints = 100000;

std::string
trim(const std::string& s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::vector<std::string>
splitList(const std::string& text)
{
    std::vector<std::string> out;
    std::string item;
    std::istringstream in(text);
    while (std::getline(in, item, ',')) {
        item = trim(item);
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

/**
 * The error for axis `key` over the field an earlier axis `prev`
 * already sweeps (under the same key or a deprecated alias).
 */
std::string
duplicateAxis(const std::string& prev, const std::string& key)
{
    std::string why = "duplicate sweep axis '" + key + "'";
    if (prev != key)
        why += " (sets the same field as '" + prev + "')";
    return why;
}

} // namespace

std::size_t
SweepSpec::points() const
{
    std::size_t n = 1;
    for (const SweepAxis& a : axes)
        n *= a.values.size();
    return n;
}

bool
loadSweepText(const std::string& text, const std::string& origin,
              SweepSpec& spec, std::string& err)
{
    // Scratch registry for checking axis keys/values with line
    // numbers; base assignments apply to the real base.
    SimulationConfig scratch = spec.base;
    config::ParamRegistry scratch_reg;
    bindParams(scratch_reg, scratch);

    config::ParamRegistry base_reg;
    bindParams(base_reg, spec.base);

    std::istringstream in(text);
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const std::string body = trim(line);
        if (body.empty() || body.front() == '#')
            continue;

        const auto fail = [&](const std::string& why) {
            err = origin + ":" + std::to_string(lineno) + ": " + why;
            return false;
        };

        if (body.compare(0, 6, "sweep ") == 0) {
            SweepAxis axis;
            std::string values, why;
            if (!config::splitAssignment(body.substr(6), axis.key,
                                         values, why))
                return fail(why);
            for (const SweepAxis& prev : spec.axes) {
                if (scratch_reg.sameField(prev.key, axis.key))
                    return fail(duplicateAxis(prev.key, axis.key));
            }
            axis.values = splitList(values);
            if (axis.values.empty())
                return fail("sweep axis '" + axis.key +
                            "' has no values");
            for (const std::string& v : axis.values) {
                if (!scratch_reg.set(axis.key, v, why))
                    return fail(why);
            }
            spec.axes.push_back(std::move(axis));
            continue;
        }

        std::string key, value, why;
        if (!config::splitAssignment(body, key, value, why) ||
            !base_reg.set(key, value, why))
            return fail(why);
    }

    if (spec.points() > kMaxPoints) {
        err = origin + ": sweep grid has " +
              std::to_string(spec.points()) + " points (limit " +
              std::to_string(kMaxPoints) + ")";
        return false;
    }
    return true;
}

bool
loadSweepFile(const std::string& path, SweepSpec& spec,
              std::string& err)
{
    std::ifstream in(path);
    if (!in) {
        err = "cannot open sweep file '" + path + "'";
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    return loadSweepText(text.str(), path, spec, err);
}

std::vector<SweepPoint>
expandSweep(const SweepSpec& spec, std::string& err)
{
    std::vector<SweepPoint> points;
    // A repeated field would label each point with two values of it
    // while only the later one runs.
    SimulationConfig scratch = spec.base;
    config::ParamRegistry scratch_reg;
    bindParams(scratch_reg, scratch);
    for (std::size_t i = 0; i < spec.axes.size(); ++i) {
        for (std::size_t j = 0; j < i; ++j) {
            if (scratch_reg.sameField(spec.axes[j].key,
                                      spec.axes[i].key)) {
                err = duplicateAxis(spec.axes[j].key, spec.axes[i].key);
                return points;
            }
        }
    }
    const std::size_t total = spec.points();
    if (total > kMaxPoints) {
        err = "sweep grid has " + std::to_string(total) +
              " points (limit " + std::to_string(kMaxPoints) + ")";
        return points;
    }
    points.reserve(total);

    for (std::size_t idx = 0; idx < total; ++idx) {
        SweepPoint p;
        p.cfg = spec.base;
        config::ParamRegistry reg;
        bindParams(reg, p.cfg);

        // Mixed-radix decomposition of idx: first axis slowest.
        std::size_t rest = idx;
        std::size_t stride = total;
        for (const SweepAxis& axis : spec.axes) {
            stride /= axis.values.size();
            const std::size_t vi = rest / stride;
            rest %= stride;
            const std::string& value = axis.values[vi];
            std::string why;
            if (!reg.set(axis.key, value, why)) {
                err = why;
                return {};
            }
            p.coords.emplace_back(axis.key, value);
        }

        const std::vector<std::string> errs = validateConfig(p.cfg);
        if (!errs.empty()) {
            p.feasible = false;
            p.whyNot = errs.front();
        }
        points.push_back(std::move(p));
    }
    return points;
}

} // namespace dtsim
