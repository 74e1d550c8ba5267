/**
 * @file
 * Simulated-time definitions.
 *
 * All simulated time in DTSim is expressed in integer ticks, where one
 * tick is one nanosecond. Using integers keeps event ordering exact and
 * the simulation deterministic across platforms.
 */

#ifndef DTSIM_SIM_TICKS_HH
#define DTSIM_SIM_TICKS_HH

#include <cstdint>
#include <string>

namespace dtsim {

/** Simulated time, in nanoseconds. */
using Tick = std::uint64_t;

/** One nanosecond. */
constexpr Tick kNsec = 1;
/** One microsecond. */
constexpr Tick kUsec = 1000 * kNsec;
/** One millisecond. */
constexpr Tick kMsec = 1000 * kUsec;
/** One second. */
constexpr Tick kSec = 1000 * kMsec;

/** Convert a tick count to (floating-point) seconds. */
constexpr double
toSeconds(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kSec);
}

/** Convert a tick count to (floating-point) milliseconds. */
constexpr double
toMillis(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kMsec);
}

/** Convert a tick count to (floating-point) microseconds. */
constexpr double
toMicros(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kUsec);
}

/**
 * Convert floating-point seconds to ticks (rounded to nearest).
 * Negative inputs clamp to zero.
 */
constexpr Tick
fromSeconds(double s)
{
    if (s <= 0.0)
        return 0;
    return static_cast<Tick>(s * static_cast<double>(kSec) + 0.5);
}

/**
 * Convert floating-point milliseconds to ticks (rounded to nearest).
 * Negative inputs clamp to zero.
 */
constexpr Tick
fromMillis(double ms)
{
    if (ms <= 0.0)
        return 0;
    return static_cast<Tick>(ms * static_cast<double>(kMsec) + 0.5);
}

/**
 * Convert floating-point microseconds to ticks (rounded to nearest).
 * Negative inputs clamp to zero.
 */
constexpr Tick
fromMicros(double us)
{
    if (us <= 0.0)
        return 0;
    return static_cast<Tick>(us * static_cast<double>(kUsec) + 0.5);
}

/** Render a tick count as a human-readable string, e.g. "3.400 ms". */
std::string formatTicks(Tick t);

} // namespace dtsim

#endif // DTSIM_SIM_TICKS_HH
