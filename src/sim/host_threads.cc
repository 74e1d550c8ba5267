#include "sim/host_threads.hh"

#include <cstdlib>
#include <thread>

namespace dtsim {

unsigned
hostThreads()
{
    if (const char* env = std::getenv("DTSIM_JOBS")) {
        const long n = std::strtol(env, nullptr, 10);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

} // namespace dtsim
