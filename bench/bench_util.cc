#include "bench/bench_util.hh"

#include <cstdio>
#include <cstdlib>

#include "config/parse.hh"
#include "sim/logging.hh"

namespace dtsim {
namespace bench {

double
workloadScale()
{
    if (const char* env = std::getenv("DTSIM_BENCH_SCALE")) {
        double scale = 0.0;
        std::string err;
        if (!config::parseValue(env, scale, err))
            fatal("DTSIM_BENCH_SCALE: %s", err.c_str());
        return scale;
    }
    return 0.2;
}

void
printHeader(const std::string& title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

void
printRow(const std::vector<std::string>& cells,
         const std::vector<int>& widths)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const int w = i < widths.size() ? widths[i] : 12;
        std::printf("%-*s", w, cells[i].c_str());
    }
    std::printf("\n");
    std::fflush(stdout);
}

std::string
fmt(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
fmtPct(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", precision, v * 100.0);
    return buf;
}

} // namespace bench
} // namespace dtsim
