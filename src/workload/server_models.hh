/**
 * @file
 * Models of the paper's three real server workloads (Section 6.3).
 *
 * The paper drives its simulator with disk-access logs collected from
 * an instrumented Linux kernel while real traces (Rutgers Web, AT&T
 * Hummingbird proxy, HP Labs file server) ran against real servers.
 * We do not have those proprietary traces, so each model synthesizes
 * a file-level request stream calibrated to every statistic the paper
 * reports (file population, sizes, footprint, request count, write
 * mix, concurrency) and pushes it through a simulated buffer-cache
 * hierarchy; the emitted miss trace plays the role of the kernel log.
 * The controller techniques under study see only this disk-level
 * stream, so matching its sequentiality, popularity profile, write
 * fraction, and concurrency preserves the behavior that matters.
 */

#ifndef DTSIM_WORKLOAD_SERVER_MODELS_HH
#define DTSIM_WORKLOAD_SERVER_MODELS_HH

#include <cstdint>
#include <memory>
#include <string>

#include "fs/buffer_cache.hh"
#include "fs/file_layout.hh"
#include "fs/prefetcher.hh"
#include "workload/trace.hh"

namespace dtsim {

/** Knobs of one server workload model. */
struct ServerModelParams
{
    std::string name = "server";

    /** File population. */
    std::uint64_t numFiles = 70000;

    /** Mean file size in bytes (log-normal, sigma below). */
    double avgFileBytes = 21.5 * 1024;
    double fileSizeSigma = 1.2;

    /** Minimum/maximum file size in bytes. */
    std::uint64_t minFileBytes = 1024;
    std::uint64_t maxFileBytes = 4 * kMiB;

    /** File-level requests to generate (the recorded period). */
    std::uint64_t numRequests = 340000;

    /**
     * Requests run through the cache hierarchy before recording
     * starts. Section 5 divides the server's life into periods and
     * manages HDC from the history of previous periods; the recorded
     * trace is therefore a steady-state period, not a cold start.
     */
    std::uint64_t warmupRequests = 340000;

    /** Zipf coefficient of file popularity. */
    double zipfAlpha = 0.8;

    /**
     * Diurnal working-set alternation: every `phaseShiftEvery`
     * requests the popularity ranking rotates by `phaseOffsetFiles`
     * (and back), so the previous phase's hot set cools, is evicted,
     * and re-misses when its phase returns. This reproduces the
     * repeated buffer-cache misses of genuinely popular blocks that
     * the paper's real traces exhibit (most-missed block: 88/78/90
     * accesses) and that a stationary Zipf + LRU cannot produce.
     * 0 disables alternation.
     */
    std::uint64_t phaseShiftEvery = 0;
    std::uint64_t phaseOffsetFiles = 0;

    /**
     * Probability that a request writes its file (Web/file server);
     * for the proxy model this is the proxy miss rate: a missed URL
     * is fetched and written to disk.
     */
    double writeRequestProb = 0.02;

    /**
     * When true, requests access a random fraction of the file
     * (file-server behavior) instead of the whole file.
     */
    bool partialAccess = false;

    /** Mean access size for partial accesses. */
    double avgAccessBytes = 3.1 * 1024;

    /** Host buffer cache in blocks (~400 MB on the 512 MB machine). */
    std::uint64_t bufferCacheBlocks = 100000;

    /** OS prefetching model. */
    PrefetchMode prefetch = PrefetchMode::Sequential;
    std::uint32_t prefetchMaxBlocks = 16;

    /** Periodic sync interval, in requests (0 = only at the end). */
    std::uint64_t syncEveryRequests = 20000;

    /**
     * Requests per simulated "day". At each day boundary the buffer
     * cache is dropped, modeling nightly batch activity (backups,
     * log processing) evicting the working set -- the mechanism that
     * makes genuinely popular blocks miss repeatedly in multi-week
     * server traces (the paper's most-missed blocks see 78-90
     * accesses, about one per day of trace). 0 disables day cycles.
     */
    std::uint64_t dayEveryRequests = 0;

    /** Layout fragmentation degree. */
    double fragmentation = 0.02;

    /**
     * Popularity-placement clustering: files of similar popularity
     * rank are laid out together in groups of this many files
     * (files of one site section are uploaded together and end up
     * adjacent on disk). Groups are shuffled across the disk. This
     * is what makes large striping units suffer load imbalance
     * (Figures 7/9/11's right side). 1 = fully random placement.
     */
    std::uint64_t placementClusterFiles = 512;

    /** Maximum concurrent I/O streams of the server. */
    unsigned streams = 16;

    std::uint32_t blockSize = 4096;
    std::uint64_t seed = 17;
};

/** A built server workload. */
struct ServerWorkload
{
    ServerModelParams params;
    std::unique_ptr<FileSystemImage> image;
    Trace trace;

    /** Buffer-cache statistics of the generating run. */
    BufferCacheStats bufferCache;
};

/**
 * Whether the model's trace can number its jobs in 32 bits: one id
 * per request (warmup included), per periodic sync and per day
 * boundary, plus the final sync.
 */
bool jobIdsFit(const ServerModelParams& params);

/**
 * Generate a server workload: build the image, run the file-level
 * request stream through the buffer-cache hierarchy, and record the
 * misses and write-backs as the disk trace. fatal() if
 * jobIdsFit(params) fails.
 *
 * A day boundary puts the buffer cache and the prefetcher back in
 * their just-built state, so runs of whole days are replayed on up to
 * hostThreads() - 1 worker threads (sim/host_threads.hh; none when
 * fewer than 3 are available) and joined in order. The trace and the
 * statistics are byte-identical for every thread count.
 */
ServerWorkload makeServerWorkload(const ServerModelParams& params,
                                  std::uint64_t total_blocks);

/**
 * `requests * scale` as a request count, saturating instead of
 * overflowing (a NaN saturates too; a negative product gives 0).
 */
std::uint64_t scaledRequests(double requests, double scale);

/**
 * Parameter presets calibrated to the paper's three workloads.
 * `scale` scales the request count (1.0 = the paper's size); the
 * benches use smaller scales to keep runtimes reasonable.
 */
ServerModelParams webServerParams(double scale = 1.0);
ServerModelParams proxyServerParams(double scale = 1.0);
ServerModelParams fileServerParams(double scale = 1.0);

} // namespace dtsim

#endif // DTSIM_WORKLOAD_SERVER_MODELS_HH
