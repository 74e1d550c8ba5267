/**
 * @file
 * The request type exchanged between the host and a disk controller.
 */

#ifndef DTSIM_CONTROLLER_IO_REQUEST_HH
#define DTSIM_CONTROLLER_IO_REQUEST_HH

#include <cstdint>

#include "sim/small_function.hh"

#include "disk/geometry.hh"
#include "sim/ticks.hh"

namespace dtsim {

/** How a completed request was served. */
enum class ServiceClass
{
    CacheHit,   ///< Entirely from the read-ahead cache and/or HDC.
    HdcHit,     ///< Entirely from the HDC pinned store.
    Media,      ///< Needed a media access.
};

/**
 * Where a request's service time went, in ticks. Filled in as the
 * request moves through the controller; all zero for pure cache hits.
 */
struct ServiceBreakdown
{
    Tick queue = 0;     ///< wait in the scheduler queue
    Tick seek = 0;      ///< seek + settle
    Tick rotation = 0;  ///< rotational positioning
    Tick transfer = 0;  ///< media transfer
    Tick bus = 0;       ///< SCSI bus transfer
};

/** One request from the host to one disk controller. */
struct IoRequest
{
    /** Completion callback: (request, completion time). */
    using Callback = SmallFunction<void(const IoRequest&, Tick), 32>;

    std::uint64_t id = 0;
    unsigned diskId = 0;

    /** First 4 KB block, local to the target disk. */
    BlockNum start = 0;

    /** Number of blocks. */
    std::uint64_t count = 1;

    bool isWrite = false;

    /** Host issue time. */
    Tick issued = 0;

    /** How the request was ultimately served (set at completion). */
    ServiceClass served = ServiceClass::Media;

    /** Service-time breakdown (set as the request is serviced). */
    ServiceBreakdown timing;

    /** True when the read was re-routed off a dead mirror replica. */
    bool degraded = false;

    Callback onComplete;
};

} // namespace dtsim

#endif // DTSIM_CONTROLLER_IO_REQUEST_HH
