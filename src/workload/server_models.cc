#include "workload/server_models.hh"

#include <algorithm>

#include "fs/buffer_cache.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace dtsim {

namespace {

/** Emit a batch of dirty blocks as coalesced write records. */
void
emitWritebacks(std::vector<ArrayBlock>& blocks, std::uint32_t job,
               Trace& trace)
{
    if (blocks.empty())
        return;
    std::sort(blocks.begin(), blocks.end());
    std::size_t i = 0;
    while (i < blocks.size()) {
        std::size_t j = i + 1;
        while (j < blocks.size() && blocks[j] == blocks[j - 1] + 1)
            ++j;
        TraceRecord rec;
        rec.start = blocks[i];
        rec.count = static_cast<std::uint32_t>(j - i);
        rec.isWrite = true;
        rec.job = job;
        trace.push_back(rec);
        i = j;
    }
    blocks.clear();
}

/**
 * Requests drawn ahead of the cache replay. A request's random draws
 * never depend on cache state, so a batch is drawn first and then
 * replayed; the batch is bounded so the stream is never materialised.
 */
constexpr std::size_t kDrawBatch = 256;

/** How many requests ahead the replay prefetches hash slots. */
constexpr std::size_t kPrefetchAhead = 8;

/** Leading blocks of a request whose hash slots are prefetched. */
constexpr std::uint64_t kPrefetchBlocks = 4;

/** One file-level request, drawn before it reaches the caches. */
struct DrawnRequest
{
    FileId file = 0;
    bool isWrite = false;
    std::uint64_t start = 0;     ///< First file block accessed.
    std::uint64_t count = 0;     ///< File blocks accessed.
    ArrayBlock firstBlock = 0;   ///< Logical block of `start`.
};

} // namespace

ServerWorkload
makeServerWorkload(const ServerModelParams& params,
                   std::uint64_t total_blocks)
{
    ServerWorkload w;
    w.params = params;

    Rng rng(params.seed);

    // File population with log-normal sizes.
    std::vector<std::uint64_t> sizes;
    sizes.reserve(params.numFiles);
    for (std::uint64_t i = 0; i < params.numFiles; ++i) {
        double b = rng.logNormalMean(params.avgFileBytes,
                                     params.fileSizeSigma);
        b = std::clamp(b, static_cast<double>(params.minFileBytes),
                       static_cast<double>(params.maxFileBytes));
        sizes.push_back(static_cast<std::uint64_t>(b));
    }

    LayoutParams lp;
    lp.blockSize = params.blockSize;
    lp.fragmentation = params.fragmentation;
    lp.seed = params.seed ^ 0xf11eULL;
    w.image = std::make_unique<FileSystemImage>(sizes, lp,
                                                total_blocks);

    ZipfSampler zipf(params.numFiles, params.zipfAlpha);
    BufferCache cache(params.bufferCacheBlocks);
    Prefetcher prefetcher(params.prefetch, params.prefetchMaxBlocks);

    // Map popularity ranks to on-disk files: clusters of adjacent
    // ranks stay adjacent on disk (creation-time clustering), while
    // the clusters themselves are shuffled across the disk.
    const std::uint64_t cluster =
        std::max<std::uint64_t>(1, params.placementClusterFiles);
    const std::uint64_t groups =
        (params.numFiles + cluster - 1) / cluster;
    std::vector<std::uint64_t> group_perm(groups);
    for (std::uint64_t g = 0; g < groups; ++g)
        group_perm[g] = g;
    for (std::uint64_t g = groups - 1; g > 0; --g)
        std::swap(group_perm[g], group_perm[rng.below(g + 1)]);
    std::vector<FileId> perm(params.numFiles);
    {
        // Assign each rank-group a contiguous id range; the last
        // (short) group maps to the leftover ids.
        std::vector<std::uint64_t> base(groups);
        std::uint64_t next = 0;
        for (std::uint64_t g = 0; g < groups; ++g) {
            base[group_perm[g]] = next;
            const std::uint64_t size = std::min(
                cluster, params.numFiles - group_perm[g] * cluster);
            next += size;
        }
        for (std::uint64_t r = 0; r < params.numFiles; ++r) {
            const std::uint64_t g = r / cluster;
            perm[r] =
                static_cast<FileId>(base[g] + (r % cluster));
        }
    }

    // Every RNG draw of request r, in the order the stream defines.
    const auto draw = [&](std::uint64_t r) {
        DrawnRequest req;
        std::uint64_t rank = zipf.sample(rng);
        if (params.phaseShiftEvery > 0 &&
            (r / params.phaseShiftEvery) % 2 == 1) {
            // Alternate phase: rotated popularity ranking.
            rank = (rank + params.phaseOffsetFiles) % params.numFiles;
        }
        req.file = perm[rank];
        const FileLayout& f = w.image->file(req.file);
        const std::uint64_t fblocks = f.blocks();

        // Pick the accessed range.
        req.count = fblocks;
        if (params.partialAccess) {
            const double bytes = std::max(
                1.0, rng.exponential(params.avgAccessBytes));
            req.count = std::max<std::uint64_t>(
                1, static_cast<std::uint64_t>(
                       bytes / params.blockSize + 0.5));
            req.count = std::min(req.count, fblocks);
            req.start = fblocks > req.count
                ? rng.below(fblocks - req.count + 1)
                : 0;
        }
        req.isWrite = rng.chance(params.writeRequestProb);
        req.firstBlock = f.blockAt(req.start);
        return req;
    };

    const auto prefetchSlots = [&](const DrawnRequest& req) {
        const std::uint64_t n = std::min(req.count, kPrefetchBlocks);
        for (std::uint64_t k = 0; k < n; ++k)
            cache.prefetch(req.firstBlock + k);
    };

    std::vector<ArrayBlock> writebacks;
    Trace job_records;  // Reused per request (cleared each read).
    std::vector<DrawnRequest> batch;
    batch.reserve(kDrawBatch);
    std::uint32_t job = 0;

    // Replay one request through the buffer cache and the prefetcher.
    const auto replay = [&](const DrawnRequest& req, bool recording) {
        const FileLayout& f = w.image->file(req.file);
        const std::uint32_t this_job = job++;

        if (req.isWrite) {
            // Dirty the blocks in the buffer cache (write-back).
            f.forEachRun(req.start, req.count,
                         [&](ArrayBlock lb, std::uint64_t n) {
                             for (std::uint64_t m = 0; m < n; ++m)
                                 cache.write(lb + m, writebacks);
                         });
            if (recording)
                emitWritebacks(writebacks, this_job, w.trace);
            writebacks.clear();
            return;
        }

        // Read through the cache; a miss triggers a disk read of the
        // missing block plus the OS prefetch, which may run past the
        // accessed range. Records of one job are emitted through a
        // coalescing buffer: the paper's logs merge accesses to
        // consecutive blocks issued within 2 ms, which covers a
        // thread's back-to-back prefetch ramp-up reads.
        job_records.clear();
        const std::uint64_t fblocks = f.blocks();
        std::uint64_t next = req.start;  // First block not yet read.
        std::uint64_t idx = req.start;   // File block of the run's lb.
        f.forEachRun(req.start, req.count, [&](ArrayBlock lb,
                                               std::uint64_t n) {
            for (std::uint64_t k = next > idx ? next - idx : 0; k < n;) {
                if (cache.readHit(lb + k)) {
                    ++k;
                    continue;
                }
                const std::uint64_t miss = idx + k;
                const std::uint64_t pf =
                    prefetcher.plan(req.file, miss, 1, fblocks);
                const std::uint64_t run =
                    std::min(1 + pf, fblocks - miss);
                // One extent walk both emits the disk reads and
                // installs the blocks they bring in.
                f.forEachRun(miss, run, [&](ArrayBlock rlb,
                                            std::uint64_t rn) {
                    if (recording)
                        job_records.push_back(TraceRecord{
                            rlb, static_cast<std::uint32_t>(rn), false,
                            this_job});
                    for (std::uint64_t m = 0; m < rn; ++m)
                        cache.install(rlb + m, writebacks);
                });
                if (recording)
                    emitWritebacks(writebacks, this_job, job_records);
                writebacks.clear();
                next = miss + run;
                k = next - idx;
            }
            idx += n;
        });
        // Driver-level coalescing of adjacent same-type records.
        for (const TraceRecord& rec : job_records) {
            if (!w.trace.empty()) {
                TraceRecord& prev = w.trace.back();
                if (prev.job == rec.job &&
                    prev.isWrite == rec.isWrite &&
                    prev.start + prev.count == rec.start) {
                    prev.count += rec.count;
                    continue;
                }
            }
            w.trace.push_back(rec);
        }
    };

    const std::uint64_t total_requests =
        params.warmupRequests + params.numRequests;
    for (std::uint64_t base = 0; base < total_requests;
         base += batch.size()) {
        // No RNG draw happens at sync or day boundaries, so drawing a
        // batch before replaying it keeps the stream unchanged.
        batch.clear();
        const std::uint64_t end = std::min<std::uint64_t>(
            total_requests, base + kDrawBatch);
        for (std::uint64_t r = base; r < end; ++r)
            batch.push_back(draw(r));

        for (std::size_t b = 0; b < kPrefetchAhead && b < batch.size();
             ++b)
            prefetchSlots(batch[b]);
        for (std::size_t b = 0; b < batch.size(); ++b) {
            if (b + kPrefetchAhead < batch.size())
                prefetchSlots(batch[b + kPrefetchAhead]);
            const std::uint64_t r = base + b;
            const bool recording = r >= params.warmupRequests;
            replay(batch[b], recording);

            if (params.syncEveryRequests > 0 &&
                (r + 1) % params.syncEveryRequests == 0) {
                std::vector<ArrayBlock> dirty = cache.sync();
                if (recording)
                    emitWritebacks(dirty, job, w.trace);
                ++job;
            }

            if (params.dayEveryRequests > 0 &&
                (r + 1) % params.dayEveryRequests == 0) {
                // Nightly batch activity: the working set is evicted;
                // dirty data reaches the disk.
                std::vector<ArrayBlock> dirty = cache.dropAll();
                if (recording)
                    emitWritebacks(dirty, job, w.trace);
                ++job;
                prefetcher.reset();
            }
        }
    }

    // Final sync.
    std::vector<ArrayBlock> dirty = cache.sync();
    emitWritebacks(dirty, job++, w.trace);

    w.bufferCache = cache.stats();
    return w;
}

ServerModelParams
webServerParams(double scale)
{
    ServerModelParams p;
    p.name = "web";
    p.numFiles = 70000;
    p.avgFileBytes = 21.5 * 1024;
    p.fileSizeSigma = 1.2;
    p.numRequests =
        static_cast<std::uint64_t>(1700000.0 * scale);
    p.warmupRequests = 150000;
    p.zipfAlpha = 1.0;                  // Origin-server popularity.
    p.writeRequestProb = 0.02;
    p.partialAccess = false;
    p.bufferCacheBlocks = 100000;       // ~400 MB of 512 MB RAM.
    p.prefetch = PrefetchMode::Sequential;
    p.syncEveryRequests = 20000;
    p.dayEveryRequests = 24000;         // ~70 "days" at full scale.
    p.fragmentation = 0.02;
    p.streams = 16;                      // PRESS helper threads.
    p.seed = 0xbeef;
    return p;
}

ServerModelParams
proxyServerParams(double scale)
{
    ServerModelParams p;
    p.name = "proxy";
    p.numFiles = 440000;
    p.avgFileBytes = 8.3 * 1024;
    p.fileSizeSigma = 1.0;
    p.numRequests =
        static_cast<std::uint64_t>(750000.0 * scale);
    p.warmupRequests = 150000;
    p.zipfAlpha = 0.75;                 // Proxy-trace popularity.
    // Proxy misses (43%) fetch the object and write it to disk.
    p.writeRequestProb = 0.43;
    p.partialAccess = false;
    p.bufferCacheBlocks = 100000;
    p.prefetch = PrefetchMode::Sequential;
    p.syncEveryRequests = 10000;
    p.dayEveryRequests = 11000;         // ~70 "days" at full scale.
    p.fragmentation = 0.03;
    p.streams = 128;
    p.seed = 0x9c0;
    return p;
}

ServerModelParams
fileServerParams(double scale)
{
    ServerModelParams p;
    p.name = "file";
    p.numFiles = 30000;
    p.avgFileBytes = 16.0 * 1024 * 1024 * 1024 / 30000.0; // 16 GB.
    p.fileSizeSigma = 1.5;
    p.minFileBytes = 4096;
    p.maxFileBytes = 64 * kMiB;
    p.numRequests =
        static_cast<std::uint64_t>(9500000.0 * scale);
    p.warmupRequests = 250000;
    p.zipfAlpha = 0.55;
    p.writeRequestProb = 0.34;
    p.partialAccess = true;
    p.avgAccessBytes = 3.1 * 1024;
    p.bufferCacheBlocks = 100000;
    p.prefetch = PrefetchMode::Sequential;
    p.syncEveryRequests = 50000;
    p.dayEveryRequests = 200000;        // ~48 "days" at full scale.
    p.fragmentation = 0.05;
    p.streams = 128;
    p.seed = 0xf11e5;
    return p;
}

} // namespace dtsim
