#include "workload/server_models.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <system_error>
#include <thread>

#include "fs/buffer_cache.hh"
#include "sim/host_threads.hh"
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

/**
 * Shards are runs of whole days at least this many requests long, so
 * that short days do not pay a hand-off each.
 */
constexpr std::uint64_t kMinShardRequests = 16384;

/** Job ids are 32-bit: a trace may use at most this many. */
constexpr std::uint64_t kJobIds = std::uint64_t{1} << 32;

/**
 * Job id of request r, or for r = total the final sync's: each
 * request, periodic sync and day boundary before r took one.
 */
std::uint64_t
jobIdOf(const ServerModelParams& params, std::uint64_t r)
{
    std::uint64_t job = r;
    if (params.syncEveryRequests > 0)
        job += r / params.syncEveryRequests;
    if (params.dayEveryRequests > 0)
        job += r / params.dayEveryRequests;
    return job;
}

/** One file-level request, drawn before it reaches the caches. */
struct DrawnRequest
{
    FileId file = 0;
    bool isWrite = false;
    std::uint64_t start = 0;     ///< First file block accessed.
    std::uint64_t count = 0;     ///< File blocks accessed.
    ArrayBlock firstBlock = 0;   ///< Logical block of `start`.
};

/** The file-level request stream: what every draw reads, read-only. */
struct RequestStream
{
    const ServerModelParams& params;
    const FileSystemImage& image;
    const ZipfSampler& zipf;
    const std::vector<FileId>& perm;  ///< Popularity rank -> file.

    /** File id -> length in blocks (the draws' only layout read). */
    std::vector<std::uint64_t> fileBlocks;

    std::uint64_t
    totalRequests() const
    {
        return params.warmupRequests + params.numRequests;
    }

    /**
     * Every RNG draw of request r, in the order the stream defines.
     * Leaves `firstBlock` to the replay, so walking the stream reads
     * no extent list.
     */
    DrawnRequest
    draw(Rng& rng, std::uint64_t r) const
    {
        DrawnRequest req;
        std::uint64_t rank = zipf.sample(rng);
        if (params.phaseShiftEvery > 0 &&
            (r / params.phaseShiftEvery) % 2 == 1) {
            // Alternate phase: rotated popularity ranking.
            rank = (rank + params.phaseOffsetFiles) % params.numFiles;
        }
        req.file = perm[rank];
        const std::uint64_t fblocks = fileBlocks[req.file];

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
        return req;
    }
};

/**
 * The host state one replayer carries from shard to shard. Every
 * shard starts a day, when both caches are as freshly built.
 */
struct ShardState
{
    explicit ShardState(const ServerModelParams& p)
        : cache(p.bufferCacheBlocks),
          prefetcher(p.numFiles, p.prefetch, p.prefetchMaxBlocks)
    {
        batch.reserve(kDrawBatch);
    }

    BufferCache cache;
    Prefetcher prefetcher;
    std::vector<ArrayBlock> writebacks;
    Trace jobRecords;  ///< One read's records (cleared each read).
    std::vector<DrawnRequest> batch;
};

/**
 * Draw requests [begin, end) from `rng` and replay them through the
 * buffer cache and the prefetcher, appending the disk records to
 * `out`. `begin` must start a day (or be 0), so that `st`'s caches
 * hold what a fresh pair would; the shard that ends the stream also
 * emits the final sync.
 */
void
replayShard(const RequestStream& s, Rng& rng, std::uint64_t begin,
            std::uint64_t end, ShardState& st, Trace& out)
{
    const ServerModelParams& params = s.params;
    BufferCache& cache = st.cache;
    std::vector<ArrayBlock>& writebacks = st.writebacks;
    // jobIdsFit() holds, so every id fits.
    std::uint32_t job = static_cast<std::uint32_t>(jobIdOf(params, begin));

    const auto prefetchSlots = [&](const DrawnRequest& req) {
        const std::uint64_t n = std::min(req.count, kPrefetchBlocks);
        for (std::uint64_t k = 0; k < n; ++k)
            cache.prefetch(req.firstBlock + k);
    };

    // Replay one request through the buffer cache and the prefetcher.
    const auto replay = [&](const DrawnRequest& req, bool recording) {
        const FileLayout f = s.image.file(req.file);
        const std::uint32_t this_job = job++;

        if (req.isWrite) {
            // Dirty the blocks in the buffer cache (write-back).
            f.forEachRun(req.start, req.count,
                         [&](ArrayBlock lb, std::uint64_t n) {
                             for (std::uint64_t m = 0; m < n; ++m)
                                 cache.write(lb + m, writebacks);
                         });
            if (recording)
                emitWritebacks(writebacks, this_job, out);
            writebacks.clear();
            return;
        }

        // Read through the cache; a miss triggers a disk read of the
        // missing block plus the OS prefetch, which may run past the
        // accessed range. Records of one job are emitted through a
        // coalescing buffer: the paper's logs merge accesses to
        // consecutive blocks issued within 2 ms, which covers a
        // thread's back-to-back prefetch ramp-up reads.
        Trace& job_records = st.jobRecords;
        job_records.clear();
        const std::uint64_t fblocks = s.fileBlocks[req.file];
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
                    st.prefetcher.plan(req.file, miss, 1, fblocks);
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
        // Driver-level coalescing of adjacent same-type records. The
        // previous shard's records carry other job ids, so a shard
        // never merges into the one before it.
        for (const TraceRecord& rec : job_records) {
            if (!out.empty()) {
                TraceRecord& prev = out.back();
                if (prev.job == rec.job &&
                    prev.isWrite == rec.isWrite &&
                    prev.start + prev.count == rec.start) {
                    prev.count += rec.count;
                    continue;
                }
            }
            out.push_back(rec);
        }
    };

    std::vector<DrawnRequest>& batch = st.batch;
    for (std::uint64_t base = begin; base < end; base += batch.size()) {
        // No RNG draw happens at sync or day boundaries, so drawing a
        // batch before replaying it keeps the stream unchanged.
        batch.clear();
        const std::uint64_t batch_end =
            std::min<std::uint64_t>(end, base + kDrawBatch);
        for (std::uint64_t r = base; r < batch_end; ++r) {
            DrawnRequest req = s.draw(rng, r);
            req.firstBlock = s.image.file(req.file).blockAt(req.start);
            batch.push_back(req);
        }

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
                    emitWritebacks(dirty, job, out);
                ++job;
            }

            if (params.dayEveryRequests > 0 &&
                (r + 1) % params.dayEveryRequests == 0) {
                // Nightly batch activity: the working set is evicted;
                // dirty data reaches the disk.
                std::vector<ArrayBlock> dirty = cache.dropAll();
                if (recording)
                    emitWritebacks(dirty, job, out);
                ++job;
                st.prefetcher.reset();
            }
        }
    }

    if (end == s.totalRequests()) {
        // Final sync.
        std::vector<ArrayBlock> dirty = cache.sync();
        emitWritebacks(dirty, job, out);
    }
}

/**
 * Shard boundaries of the request stream: shard i is requests
 * [bounds[i], bounds[i+1]). Each shard is a run of whole days (the
 * last may end early); a model without day cycles is one shard.
 */
std::vector<std::uint64_t>
shardBounds(const ServerModelParams& params, std::uint64_t total)
{
    std::uint64_t span = total;
    if (params.dayEveryRequests > 0) {
        const std::uint64_t days =
            (kMinShardRequests + params.dayEveryRequests - 1) /
            params.dayEveryRequests;
        span = days * params.dayEveryRequests;
    }
    std::vector<std::uint64_t> bounds{0};
    while (bounds.back() < total)
        bounds.push_back(
            bounds.back() + std::min(span, total - bounds.back()));
    if (bounds.size() == 1)
        bounds.push_back(0);  // An empty stream is one empty shard.
    return bounds;
}

/**
 * Replay the shards, one worker thread per state in `states`. The
 * calling thread walks the draw stream once without replaying it,
 * handing each shard the RNG state it starts from as soon as that is
 * known; each worker redraws its shards from those snapshots. The
 * states are freed before the fragments are joined. A worker's
 * exception is rethrown here once every worker has stopped.
 */
void
replayShardsInParallel(const RequestStream& s, Rng& rng,
                       const std::vector<std::uint64_t>& bounds,
                       std::vector<std::unique_ptr<ShardState>>& states,
                       ServerWorkload& w)
{
    const std::size_t shards = bounds.size() - 1;
    std::vector<Rng> starts(shards, rng);

    // Reserve each fragment here, on the calling thread, for one
    // record per recorded request (the presets emit 0.4-0.9). Pages
    // never written cost address space only, while a fragment grown
    // by a worker would leave its memory in that thread's malloc
    // arena, out of reach of the replay that follows.
    std::vector<Trace> fragments(shards);
    for (std::size_t i = 0; i < shards; ++i) {
        const std::uint64_t from =
            std::max(bounds[i], s.params.warmupRequests);
        if (bounds[i + 1] > from)
            fragments[i].reserve(bounds[i + 1] - from);
    }
    std::atomic<std::size_t> known{1};  // Shards whose start is known.
    std::atomic<std::size_t> next{0};   // Next unclaimed shard.
    std::vector<std::exception_ptr> errors(states.size());
    const auto work = [&](std::size_t worker) {
        try {
            for (;;) {
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= shards)
                    return;
                for (std::size_t k =
                         known.load(std::memory_order_acquire);
                     k <= i; k = known.load(std::memory_order_acquire))
                    known.wait(k, std::memory_order_acquire);
                Rng shard_rng = starts[i];
                replayShard(s, shard_rng, bounds[i], bounds[i + 1],
                            *states[worker], fragments[i]);
            }
        } catch (...) {
            errors[worker] = std::current_exception();
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(states.size());
    for (std::size_t t = 0; t < states.size(); ++t) {
        try {
            pool.emplace_back(work, t);
        } catch (const std::system_error&) {
            break;  // Out of threads: the started workers do it all.
        }
    }
    for (std::size_t i = 1; i < shards; ++i) {
        for (std::uint64_t r = bounds[i - 1]; r < bounds[i]; ++r)
            s.draw(rng, r);
        starts[i] = rng;
        known.store(i + 1, std::memory_order_release);
        known.notify_all();
    }
    if (pool.empty())
        work(0);
    for (std::thread& t : pool)
        t.join();
    for (const std::exception_ptr& e : errors)
        if (e)
            std::rethrow_exception(e);

    for (const std::unique_ptr<ShardState>& st : states)
        w.bufferCache += st->cache.stats();
    states.clear();

    std::size_t records = 0;
    for (const Trace& f : fragments)
        records += f.size();
    w.trace.reserve(records);
    for (Trace& f : fragments) {
        w.trace.insert(w.trace.end(), f.begin(), f.end());
        Trace().swap(f);
    }
}

} // namespace

std::uint64_t
scaledRequests(double requests, double scale)
{
    const double n = requests * scale;
    // Casting a double outside the target's range is undefined.
    if (!(n < 18446744073709551616.0))  // 2^64; also catches NaN.
        return std::numeric_limits<std::uint64_t>::max();
    return n > 0 ? static_cast<std::uint64_t>(n) : 0;
}

bool
jobIdsFit(const ServerModelParams& params)
{
    // The final sync takes the last id, jobIdOf(total).
    return params.warmupRequests < kJobIds &&
           params.numRequests < kJobIds &&
           jobIdOf(params, params.warmupRequests + params.numRequests) <
               kJobIds;
}

ServerWorkload
makeServerWorkload(const ServerModelParams& params,
                   std::uint64_t total_blocks)
{
    if (!jobIdsFit(params))
        fatal("makeServerWorkload: model '%s' has more requests, syncs "
              "and days than 32-bit job ids can number (lower "
              "workload.scale)",
              params.name.c_str());

    ServerWorkload w;
    w.params = params;

    // A day boundary resets both caches, and job ids and RNG
    // positions are known in advance, so runs of whole days replay
    // independently (DESIGN.md, "Day-sharded replay"). Each replayer's
    // state is allocated here, on the calling thread and before the
    // image, so that once freed its memory lies below the image, where
    // the allocator keeps it for the replay that follows.
    const std::vector<std::uint64_t> bounds =
        shardBounds(params, params.warmupRequests + params.numRequests);
    const std::size_t shards = bounds.size() - 1;
    const unsigned threads = hostThreads();
    const std::size_t workers =
        threads < 3 ? 1 : std::min<std::size_t>(threads - 1, shards);
    std::vector<std::unique_ptr<ShardState>> states;
    for (std::size_t i = 0; i < workers; ++i)
        states.push_back(std::make_unique<ShardState>(params));

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

    // The sizes' storage becomes the draws' per-file block counts.
    for (std::size_t f = 0; f < sizes.size(); ++f)
        sizes[f] = w.image->file(static_cast<FileId>(f)).blocks();
    const RequestStream stream{params, *w.image, zipf, perm,
                               std::move(sizes)};

    if (workers > 1) {
        replayShardsInParallel(stream, rng, bounds, states, w);
        return w;
    }
    // One replayer: the whole stream is one shard, drawn as it goes.
    // Reserved like a fragment above, for one record per recorded
    // request, so the trace never grows by doubling.
    w.trace.reserve(params.numRequests);
    replayShard(stream, rng, 0, bounds.back(), *states[0], w.trace);
    w.bufferCache = states[0]->cache.stats();
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
    p.numRequests = scaledRequests(1700000.0, scale);
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
    p.numRequests = scaledRequests(750000.0, scale);
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
    p.numRequests = scaledRequests(9500000.0, scale);
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
