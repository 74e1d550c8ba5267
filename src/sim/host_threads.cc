#include "sim/host_threads.hh"

#include <cstdlib>
#include <string>
#include <thread>

#include "config/parse.hh"
#include "sim/logging.hh"

namespace dtsim {

unsigned
hostThreads()
{
    if (const char* env = std::getenv("DTSIM_JOBS")) {
        unsigned n = 0;
        std::string err;
        if (!config::parseValue(env, n, err))
            fatal("DTSIM_JOBS: %s", err.c_str());
        if (n > 0)
            return n;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

} // namespace dtsim
