#include "controller/disk_controller.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace dtsim {

const char*
cacheOrgName(CacheOrg o)
{
    switch (o) {
      case CacheOrg::Segment: return "Segment";
      case CacheOrg::Block: return "Block";
    }
    return "?";
}

const char*
readAheadModeName(ReadAheadMode m)
{
    switch (m) {
      case ReadAheadMode::None: return "None";
      case ReadAheadMode::Blind: return "Blind";
      case ReadAheadMode::FOR: return "FOR";
    }
    return "?";
}

DiskController::DiskController(EventQueue& eq, ScsiBus& bus,
                               const DiskParams& params,
                               const ControllerConfig& cfg,
                               unsigned disk_id)
    : eq_(eq), bus_(bus), params_(params), cfg_(cfg), diskId_(disk_id),
      geom_(params_), mech_(params_, geom_),
      sched_(makeScheduler(cfg.scheduler))
{
    if (params_.recordingZones > 0) {
        zoned_ = std::make_unique<ZonedGeometry>(
            ZonedGeometry::makeDefault(params_,
                                       params_.recordingZones));
        mech_.setZonedGeometry(zoned_.get());
    }

    // Carve the controller memory: HDC region and (for FOR) the
    // layout bitmap come out of the read-ahead cache budget.
    std::uint64_t ra_bytes = params_.usableCacheBytes();
    if (cfg_.hdcBytes > 0) {
        if (cfg_.hdcBytes >= ra_bytes)
            fatal("DiskController: HDC budget exceeds cache memory");
        ra_bytes -= cfg_.hdcBytes;
        hdc_ = std::make_unique<HdcStore>(
            cfg_.hdcBytes / params_.blockSize);
    }
    if (cfg_.readAhead == ReadAheadMode::FOR) {
        const std::uint64_t bm = params_.bitmapBytes();
        if (bm >= ra_bytes)
            fatal("DiskController: no memory left for the FOR bitmap");
        ra_bytes -= bm;
    }

    maxReadBlocks_ =
        std::max<std::uint64_t>(1, params_.segmentBlocks());

    if (cfg_.org == CacheOrg::Segment) {
        const std::uint64_t nseg =
            std::max<std::uint64_t>(1, ra_bytes / params_.segmentBytes);
        raCache_ = std::make_unique<SegmentCache>(
            nseg, params_.segmentBlocks(), cfg_.segmentPolicy,
            cfg_.seed + disk_id);
    } else {
        const std::uint64_t nblk =
            std::max<std::uint64_t>(8, ra_bytes / params_.blockSize);
        raCache_ = std::make_unique<BlockCache>(nblk, cfg_.blockPolicy);
    }
}

std::uint64_t
DiskController::raCacheBlocks() const
{
    return raCache_->capacityBlocks();
}

std::uint64_t
DiskController::hdcCapacityBlocks() const
{
    return hdc_ ? hdc_->capacityBlocks() : 0;
}

std::uint64_t
DiskController::hdcPinnedBlocks() const
{
    return hdc_ ? hdc_->pinnedBlocks() : 0;
}

double
DiskController::utilization() const
{
    const Tick now = eq_.now();
    if (now == 0)
        return 0.0;
    return static_cast<double>(stats_.mediaBusy) /
           static_cast<double>(now);
}

MediaJob*
DiskController::allocJob()
{
    if (jobFree_.empty()) {
        jobStore_.push_back(std::make_unique<MediaJob>());
        return jobStore_.back().get();
    }
    MediaJob* job = jobFree_.back();
    jobFree_.pop_back();
    *job = MediaJob{};
    return job;
}

void
DiskController::submit(IoRequest req)
{
    if (req.count == 0)
        fatal("DiskController: zero-length request");
    if (req.start + req.count > params_.totalBlocks())
        fatal("DiskController: request past end of disk %u", diskId_);
    if (cfg_.readAhead == ReadAheadMode::FOR && bitmap_ == nullptr)
        fatal("DiskController: FOR requires a layout bitmap");

    ++outstanding_;

    Tick overhead = params_.requestOverhead;
    if (hdc_)
        overhead += params_.hdcLookupOverhead;
    if (cfg_.readAhead == ReadAheadMode::FOR && !req.isWrite)
        overhead += params_.bitmapLookupOverhead;

    MediaJob* job = allocJob();
    job->req = std::move(req);
    job->req.issued = eq_.now();
    eq_.scheduleAfter(overhead, [this, job]() { process(job); });
}

DiskController::PrefixHit
DiskController::cachedPrefix(BlockNum start, std::uint64_t count)
{
    // Per-block semantics: each block checks the HDC store first,
    // then the read-ahead cache. The cache probe can still batch
    // consecutive blocks because the two stores are disjoint by
    // construction (insertIntoCache() skips pinned blocks; pinBlock()
    // invalidates the cached copy), so no block inside a cache-hit
    // prefix could have hit the HDC check instead.
    PrefixHit hit;
    while (hit.blocks < count) {
        const BlockNum b = start + hit.blocks;
        if (hdc_ && hdc_->contains(b)) {
            ++hit.blocks;
            ++hit.hdcBlocks;
            continue;
        }
        const std::uint64_t n =
            raCache_->lookupPrefixBlockwise(b, count - hit.blocks);
        if (n == 0)
            break;
        hit.blocks += n;
    }
    return hit;
}

void
DiskController::process(MediaJob* job)
{
    if (job->req.isWrite)
        handleWrite(job);
    else
        handleRead(job);
}

void
DiskController::handleRead(MediaJob* job)
{
    IoRequest& req = job->req;
    ++stats_.reads;
    stats_.readBlocks += req.count;

    const PrefixHit hit = cachedPrefix(req.start, req.count);
    stats_.hdcHitBlocks += hit.hdcBlocks;
    stats_.raHitBlocks += hit.blocks - hit.hdcBlocks;

    // Cached blocks at the tail of the request need not be read from
    // the media either; the single media access covers only
    // [first missing, last missing].
    std::uint64_t suffix = 0;
    std::uint64_t suffix_hdc = 0;
    while (hit.blocks + suffix < req.count) {
        const BlockNum b = req.start + req.count - 1 - suffix;
        if (hdc_ && hdc_->contains(b)) {
            ++suffix;
            ++suffix_hdc;
            continue;
        }
        if (raCache_->contains(b)) {
            ++suffix;
            continue;
        }
        break;
    }
    stats_.hdcHitBlocks += suffix_hdc;
    stats_.raHitBlocks += suffix - suffix_hdc;

    if (hit.blocks + suffix >= req.count) {
        ++stats_.cacheHitRequests;
        if (hit.hdcBlocks + suffix_hdc == req.count) {
            ++stats_.hdcHitRequests;
            req.served = ServiceClass::HdcHit;
        } else {
            req.served = ServiceClass::CacheHit;
        }
        respond(job);
        return;
    }

    job->mediaStart = req.start + hit.blocks;
    job->mediaCount = req.count - hit.blocks - suffix;
    job->cylinder = geom_.blockToCylinder(job->mediaStart);
    job->seq = seq_++;
    req.served = ServiceClass::Media;
    enqueueMedia(job);
}

void
DiskController::handleWrite(MediaJob* job)
{
    IoRequest& req = job->req;
    ++stats_.writes;
    stats_.writeBlocks += req.count;

    if (hdc_ && hdc_->allPinned(req.start, req.count)) {
        // The HDC store absorbs the whole write; dirty blocks reach
        // the media only on flush_hdc().
        for (std::uint64_t i = 0; i < req.count; ++i)
            hdc_->absorbWrite(req.start + i);
        stats_.hdcHitBlocks += req.count;
        ++stats_.hdcHitRequests;
        ++stats_.cacheHitRequests;
        req.served = ServiceClass::HdcHit;
        respond(job);
        return;
    }

    // Write-through: cached read-ahead copies become stale.
    raCache_->invalidateRange(req.start, req.count);

    job->mediaStart = req.start;
    job->mediaCount = req.count;
    job->cylinder = geom_.blockToCylinder(req.start);
    job->seq = seq_++;
    req.served = ServiceClass::Media;
    enqueueMedia(job);
}

void
DiskController::enqueueMedia(MediaJob* job)
{
    job->enqueuedAt = eq_.now();
    sched_->push(job);
    if (svc_)
        svc_->queueDepth.sample(static_cast<double>(sched_->size()));
    tryStartMedia();
}

void
DiskController::tryStartMedia()
{
    if (mediaBusy_ || sched_->empty())
        return;
    startMedia(sched_->pop(mech_.currentCylinder()));
}

std::uint64_t
DiskController::readAheadBlocks(BlockNum media_start,
                                std::uint64_t media_count) const
{
    std::uint64_t ra = 0;
    const std::uint64_t budget = media_count < maxReadBlocks_
                                     ? maxReadBlocks_ - media_count
                                     : 0;

    switch (cfg_.readAhead) {
      case ReadAheadMode::None:
        break;
      case ReadAheadMode::Blind:
        ra = budget;
        break;
      case ReadAheadMode::FOR:
        // Read ahead only while the bitmap marks blocks as the
        // logical continuation of their physical predecessor.
        ra = bitmap_->countRun(media_start + media_count, budget);
        break;
    }

    const std::uint64_t end = media_start + media_count;
    const std::uint64_t total = params_.totalBlocks();
    if (end + ra > total)
        ra = total - end;
    return ra;
}

void
DiskController::startMedia(MediaJob* job)
{
    mediaBusy_ = true;

    std::uint64_t ra = 0;
    if (!job->req.isWrite && !job->rebuild)
        ra = readAheadBlocks(job->mediaStart, job->mediaCount);

    MediaAccess acc;
    acc.startSector = geom_.blockToSector(job->mediaStart);
    acc.sectorCount =
        (job->mediaCount + ra) * geom_.sectorsPerBlock();
    acc.isWrite = job->req.isWrite;

    const ServiceTiming t = mech_.service(acc, eq_.now());
    const Tick seek = t.seek + t.settle;
    const Tick total = t.total();

    ++stats_.mediaAccesses;
    if (job->rebuild) {
        ++stats_.rebuildJobs;
        if (job->req.isWrite)
            stats_.rebuildBlocks += job->mediaCount;
    } else if (job->background) {
        stats_.flushBlocks += job->mediaCount;
    } else {
        stats_.mediaBlocks += job->mediaCount;
    }
    stats_.readAheadBlocks += ra;
    stats_.seekTime += seek;
    stats_.rotTime += t.rotational;
    stats_.xferTime += t.transfer;
    stats_.mediaBusy += total;

    job->req.timing.queue = eq_.now() - job->enqueuedAt;
    job->req.timing.seek = seek;
    job->req.timing.rotation = t.rotational;
    job->req.timing.transfer = t.transfer;

    eq_.scheduleAfter(total,
                      [this, job, ra]() { onMediaDone(job, ra); });
}

void
DiskController::insertIntoCache(BlockNum start, std::uint64_t count,
                                std::uint64_t spec_offset)
{
    if (!hdc_) {
        raCache_->insertRun(start, count, spec_offset);
        return;
    }
    // Skip pinned blocks: they live in the HDC region already. Each
    // piece runs up to the next pinned block.
    std::uint64_t i = 0;
    while (i < count) {
        const BlockNum pinned = hdc_->nextPinned(start + i);
        if (pinned == start + i) {
            ++i;
            continue;
        }
        const std::uint64_t j = std::min(count, pinned - start);
        // The speculative suffix of the whole run maps onto this
        // piece: everything at or beyond spec_offset is speculative.
        const std::uint64_t spec_in_piece =
            spec_offset > i ? std::min(spec_offset - i, j - i) : 0;
        raCache_->insertRun(start + i, j - i, spec_in_piece);
        i = j;
    }
}

void
DiskController::onMediaDone(MediaJob* job, std::uint64_t ra_blocks)
{
    mediaBusy_ = false;

    if (!job->req.isWrite && !job->rebuild) {
        insertIntoCache(job->mediaStart, job->mediaCount + ra_blocks,
                        job->mediaCount);
        // The demanded blocks are consumed by the host now; mark them
        // used so MRU replacement sees them as dead.
        raCache_->lookupPrefix(job->mediaStart, job->mediaCount);
    }

    if (job->rebuild) {
        // Rebuild traffic bypasses the host bus. Its completion chain
        // (the array submits the paired write or the next chunk) runs
        // here; the record is recycled only after it returns.
        if (job->req.onComplete)
            job->req.onComplete(job->req, eq_.now());
        recycleJob(job);
    } else if (job->background) {
        ++stats_.flushWrites;
        recycleJob(job);
    } else {
        respond(job);
    }

    tryStartMedia();
}

void
DiskController::respond(MediaJob* job)
{
    IoRequest& req = job->req;
    const Tick ready = eq_.now();
    const Tick done =
        bus_.transfer(ready, req.count * params_.blockSize);
    req.timing.bus = done - ready;
    eq_.scheduleAt(done, [this, job, done]() { complete(job, done); });
}

void
DiskController::complete(MediaJob* job, Tick done)
{
    --outstanding_;
    noteComplete(job->req, done);
    if (job->req.onComplete)
        job->req.onComplete(job->req, done);
    recycleJob(job);
}

void
DiskController::noteComplete(const IoRequest& req, Tick done)
{
    stats_.queueTime += req.timing.queue;
    stats_.busTime += req.timing.bus;
    const Tick latency = done - req.issued;
    stats_.latencySum += latency;
    stats_.latencyMax = std::max(stats_.latencyMax, latency);

    if (svc_) {
        svc_->latencyMs.sample(toMillis(latency));
        svc_->queueMs.sample(toMillis(req.timing.queue));
        svc_->seekMs.sample(toMillis(req.timing.seek));
        svc_->rotationMs.sample(toMillis(req.timing.rotation));
        svc_->transferMs.sample(toMillis(req.timing.transfer));
        svc_->busMs.sample(toMillis(req.timing.bus));
    }

    // shouldRecord() runs the per-request sampling draw; the event is
    // only assembled for accepted requests. Completions reach this
    // point in a deterministic order, so the draw sequence -- and
    // therefore the sampled set -- is deterministic.
    if (tracer_ && tracer_->shouldRecord()) {
        RequestTraceEvent ev;
        ev.completed = done;
        ev.disk = diskId_;
        ev.lba = req.start;
        ev.blocks = static_cast<std::uint32_t>(req.count);
        ev.isWrite = req.isWrite;
        switch (req.served) {
          case ServiceClass::CacheHit:
            ev.outcome = TraceOutcome::Cache;
            break;
          case ServiceClass::HdcHit:
            ev.outcome = TraceOutcome::Hdc;
            break;
          case ServiceClass::Media:
            ev.outcome = TraceOutcome::Media;
            break;
        }
        ev.queue = req.timing.queue;
        ev.seek = req.timing.seek;
        ev.rotation = req.timing.rotation;
        ev.transfer = req.timing.transfer;
        ev.bus = req.timing.bus;
        ev.latency = latency;
        ev.degraded = req.degraded;
        tracer_->record(ev);
    }
}

bool
DiskController::pinBlock(BlockNum block)
{
    if (!hdc_)
        return false;
    if (block >= params_.totalBlocks())
        fatal("DiskController: pin past end of disk");
    if (!hdc_->pin(block))
        return false;
    // The block now lives in the pinned region; drop any read-ahead
    // copy so the space accounting stays honest.
    raCache_->invalidateRange(block, 1);
    return true;
}

bool
DiskController::unpinBlock(BlockNum block)
{
    if (!hdc_)
        return false;
    bool dirty = false;
    if (!hdc_->unpin(block, &dirty))
        return false;
    if (dirty) {
        // The released block's data must reach the media.
        MediaJob* job = allocJob();
        job->mediaStart = block;
        job->mediaCount = 1;
        job->cylinder = geom_.blockToCylinder(block);
        job->seq = seq_++;
        job->background = true;
        job->req.isWrite = true;
        job->req.start = block;
        job->req.count = 1;
        enqueueMedia(job);
    }
    return true;
}

std::vector<std::string>
accountingErrors(unsigned disk, const ControllerStats& s,
                 const SchedulerStats& sched, const MechCounters& mech,
                 const RaCounters& ra)
{
    std::vector<std::string> bad;
    const auto check = [&](bool ok, const char* what, std::uint64_t lhs,
                           std::uint64_t rhs) {
        if (!ok)
            bad.push_back(strfmt("disk%u: %s (%llu vs %llu)", disk, what,
                                 static_cast<unsigned long long>(lhs),
                                 static_cast<unsigned long long>(rhs)));
    };
    // Sums on both sides, so no counter is subtracted below zero.
    const std::uint64_t requests =
        s.reads + s.writes + s.flushWrites + s.rebuildJobs;
    const std::uint64_t served = s.cacheHitRequests + s.mediaAccesses;
    check(requests == served,
          "reads+writes+flush_writes+rebuild_jobs == "
          "cache_hit_requests+media_accesses",
          requests, served);
    const std::uint64_t blocks = s.readBlocks + s.writeBlocks;
    const std::uint64_t from =
        s.hdcHitBlocks + s.raHitBlocks + s.mediaBlocks;
    check(blocks == from,
          "read_blocks+write_blocks == hdc_hit_blocks+ra_hit_blocks+"
          "media_blocks",
          blocks, from);
    check(sched.pushes == sched.pops, "sched.pushes == sched.pops",
          sched.pushes, sched.pops);
    check(sched.pops == mech.accesses, "sched.pops == mech.accesses",
          sched.pops, mech.accesses);
    const std::uint64_t spec = ra.specUsed + ra.specWasted;
    check(ra.specInserted >= spec,
          "spec_inserted >= spec_used+spec_wasted", ra.specInserted,
          spec);
    return bad;
}

std::vector<std::string>
DiskController::accountingErrors() const
{
    return dtsim::accountingErrors(diskId_, stats_, sched_->schedStats(),
                                   mech_.counters(),
                                   raCache_->raCounters());
}

void
DiskController::exportStats(stats::StatGroup& parent) const
{
    using stats::Scalar;
    using stats::StatGroup;

    StatGroup& g = parent.makeGroup(strfmt("disk%u", diskId_));
    auto add = [](StatGroup& grp, const char* name, const char* desc,
                  double v) {
        grp.make<Scalar>(name, desc).set(v);
    };
    auto addU = [&add](StatGroup& grp, const char* name,
                       const char* desc, std::uint64_t v) {
        add(grp, name, desc, static_cast<double>(v));
    };

    addU(g, "reads", "host read requests", stats_.reads);
    addU(g, "writes", "host write requests", stats_.writes);
    addU(g, "read_blocks", "blocks read by the host",
         stats_.readBlocks);
    addU(g, "write_blocks", "blocks written by the host",
         stats_.writeBlocks);
    addU(g, "cache_hit_requests",
         "requests served without a media access",
         stats_.cacheHitRequests);
    addU(g, "hdc_hit_requests",
         "requests served entirely by the HDC store",
         stats_.hdcHitRequests);
    addU(g, "hdc_hit_blocks", "blocks served from the HDC store",
         stats_.hdcHitBlocks);
    addU(g, "ra_hit_blocks", "blocks served from the read-ahead cache",
         stats_.raHitBlocks);
    addU(g, "media_accesses", "media accesses issued",
         stats_.mediaAccesses);
    addU(g, "media_blocks", "demanded blocks read/written on media",
         stats_.mediaBlocks);
    addU(g, "read_ahead_blocks", "speculative blocks read from media",
         stats_.readAheadBlocks);
    addU(g, "flush_writes", "HDC flush media jobs", stats_.flushWrites);
    addU(g, "flush_blocks", "blocks written by HDC flush jobs",
         stats_.flushBlocks);
    add(g, "seek_ms", "total seek + settle time",
        toMillis(stats_.seekTime));
    add(g, "rotation_ms", "total rotational delay",
        toMillis(stats_.rotTime));
    add(g, "transfer_ms", "total media transfer time",
        toMillis(stats_.xferTime));
    add(g, "media_busy_ms", "total mechanism busy time",
        toMillis(stats_.mediaBusy));
    add(g, "queue_ms", "total scheduler queue wait of host requests",
        toMillis(stats_.queueTime));
    add(g, "bus_ms", "total bus transfer time of host requests",
        toMillis(stats_.busTime));
    add(g, "latency_sum_ms", "summed host request latency",
        toMillis(stats_.latencySum));
    add(g, "latency_max_ms", "largest host request latency",
        toMillis(stats_.latencyMax));

    StatGroup& cache = g.makeGroup("cache");
    addU(cache, "capacity_blocks", "read-ahead cache capacity",
         raCache_->capacityBlocks());
    addU(cache, "used_blocks", "read-ahead cache blocks held",
         raCache_->usedBlocks());

    const RaCounters& ra = raCache_->raCounters();
    StatGroup& rag = g.makeGroup("read_ahead");
    addU(rag, "spec_inserted", "speculative blocks cached",
         ra.specInserted);
    addU(rag, "spec_used", "speculative blocks later consumed",
         ra.specUsed);
    addU(rag, "spec_wasted", "speculative blocks dropped unconsumed",
         ra.specWasted);
    add(rag, "accuracy", "spec_used / spec_inserted", ra.accuracy());

    const SchedulerStats& ss = sched_->schedStats();
    StatGroup& sg = g.makeGroup("sched");
    addU(sg, "pushes", "media jobs enqueued", ss.pushes);
    addU(sg, "pops", "media jobs dequeued", ss.pops);
    add(sg, "depth_mean", "mean queue depth after enqueue",
        ss.meanDepth());
    addU(sg, "depth_max", "largest queue depth seen", ss.depthMax);

    const MechCounters& mc = mech_.counters();
    StatGroup& mg = g.makeGroup("mech");
    addU(mg, "accesses", "media accesses serviced", mc.accesses);
    addU(mg, "sectors", "sectors transferred", mc.sectors);
    addU(mg, "seeks", "accesses that moved the arm", mc.seeks);
    addU(mg, "seek_cylinders", "total cylinders travelled",
         mc.seekCylinders);
    addU(mg, "head_switches", "same-cylinder head changes",
         mc.headSwitches);
    addU(mg, "track_crossings", "track boundaries crossed mid-transfer",
         mc.trackCrossings);

    if (hdc_) {
        const HdcCounters& hc = hdc_->counters();
        StatGroup& hg = g.makeGroup("hdc");
        addU(hg, "capacity_blocks", "pinned-region capacity",
             hdc_->capacityBlocks());
        addU(hg, "pinned_blocks", "blocks currently pinned",
             hdc_->pinnedBlocks());
        addU(hg, "dirty_blocks", "pinned blocks with absorbed writes",
             hdc_->dirtyBlocks());
        addU(hg, "pins", "successful pin_blk calls", hc.pins);
        addU(hg, "pin_failures", "rejected pin_blk calls",
             hc.pinFailures);
        addU(hg, "unpins", "successful unpin_blk calls", hc.unpins);
        addU(hg, "dirty_unpins", "unpins that released dirty data",
             hc.dirtyUnpins);
        addU(hg, "absorbed_writes", "writes absorbed by pinned blocks",
             hc.absorbedWrites);
        addU(hg, "flush_calls", "flush_hdc invocations", hc.flushCalls);
        addU(hg, "flushed_blocks", "dirty blocks handed to flush",
             hc.flushedBlocks);
    }
}

std::uint64_t
DiskController::flushHdc()
{
    if (!hdc_)
        return 0;
    std::vector<BlockNum> dirty = hdc_->flush();
    if (dirty.empty())
        return 0;
    std::sort(dirty.begin(), dirty.end());

    // Coalesce contiguous runs into single media writes.
    std::uint64_t jobs = 0;
    std::size_t i = 0;
    while (i < dirty.size()) {
        std::size_t j = i + 1;
        while (j < dirty.size() && dirty[j] == dirty[j - 1] + 1)
            ++j;
        MediaJob* job = allocJob();
        job->mediaStart = dirty[i];
        job->mediaCount = j - i;
        job->cylinder = geom_.blockToCylinder(dirty[i]);
        job->seq = seq_++;
        job->background = true;
        job->req.isWrite = true;
        job->req.start = dirty[i];
        job->req.count = j - i;
        enqueueMedia(job);
        ++jobs;
        i = j;
    }
    return jobs;
}

void
DiskController::submitRebuild(BlockNum start, std::uint64_t count,
                              bool is_write,
                              IoRequest::Callback done)
{
    MediaJob* job = allocJob();
    job->mediaStart = start;
    job->mediaCount = count;
    job->cylinder = geom_.blockToCylinder(start);
    job->background = true;
    job->rebuild = true;
    job->req.isWrite = is_write;
    job->req.start = start;
    job->req.count = count;
    job->req.onComplete = std::move(done);
    eq_.scheduleAfter(commandLatency(), [this, job]() {
        job->seq = seq_++;
        enqueueMedia(job);
    });
}

} // namespace dtsim
