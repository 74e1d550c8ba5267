#include "array/disk_array.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace dtsim {

DiskArray::DiskArray(EventQueue& eq, const ArrayConfig& cfg)
    : eq_(eq), bus_(cfg.busBytesPerSec), mirrored_(cfg.mirrored),
      striping_(cfg.mirrored ? cfg.disks / 2 : cfg.disks,
                cfg.stripeUnitBytes / cfg.disk.blockSize,
                cfg.disk.totalBlocks()),
      fault_(cfg.fault)
{
    if (cfg.stripeUnitBytes % cfg.disk.blockSize != 0)
        fatal("DiskArray: stripe unit must be a block multiple");
    if (cfg.mirrored && (cfg.disks < 2 || cfg.disks % 2 != 0))
        fatal("DiskArray: mirroring needs an even disk count");
    ctrls_.reserve(cfg.disks);
    for (unsigned d = 0; d < cfg.disks; ++d)
        ctrls_.push_back(std::make_unique<DiskController>(
            eq_, bus_, cfg.disk, cfg.controller, d));

    if (fault_.enabled()) {
        if (fault_.killDisk >= cfg.disks)
            fatal("DiskArray: fault.kill_disk %u out of range "
                  "(%u disks)",
                  fault_.killDisk, cfg.disks);
        health_.assign(cfg.disks, DiskHealth::Alive);
        rebuildEnd_.assign(cfg.disks, 0);
        eq_.scheduleAt(fault_.killAtTicks, [this, d = fault_.killDisk]() {
            failDisk(d);
        });
        if (fault_.repairAtTicks > 0) {
            if (fault_.repairAtTicks <= fault_.killAtTicks)
                fatal("DiskArray: fault.repair_at_ticks must be "
                      "after fault.kill_at_ticks");
            eq_.scheduleAt(fault_.repairAtTicks,
                           [this, d = fault_.killDisk]() {
                               repairDisk(d);
                           });
        }
    }
}

void
DiskArray::setBitmaps(const std::vector<LayoutBitmap>* bitmaps)
{
    if (!bitmaps)
        fatal("DiskArray: null bitmap vector");
    const unsigned logical = striping_.disks();
    if (bitmaps->size() != logical)
        fatal("DiskArray: need one bitmap per (logical) disk");
    for (unsigned d = 0; d < logical; ++d) {
        ctrls_[d]->setBitmap(&(*bitmaps)[d]);
        if (mirrored_)
            ctrls_[d + logical]->setBitmap(&(*bitmaps)[d]);
    }
}

unsigned
DiskArray::pickReplica(unsigned disk) const
{
    if (!mirrored_)
        return disk;
    const unsigned half = striping_.disks();
    const unsigned mirror = disk + half;
    // Shorter queue wins; ties go to the primary.
    return ctrls_[mirror]->outstanding() <
                   ctrls_[disk]->outstanding()
        ? mirror
        : disk;
}

unsigned
DiskArray::pickReadTarget(unsigned disk, bool& degraded)
{
    if (health_.empty())
        return pickReplica(disk);

    if (!mirrored_) {
        if (health_[disk] != DiskHealth::Alive)
            fatal("DiskArray: I/O on failed disk %u with no mirror "
                  "to fall back on -- enable system.mirrored or "
                  "drop the fault.kill_at_ticks script",
                  disk);
        return disk;
    }

    const unsigned mirror = partnerOf(disk);
    // A rebuilding disk absorbs writes but cannot serve reads until
    // the copy-back completes.
    const bool primary_ok = health_[disk] == DiskHealth::Alive;
    const bool mirror_ok = health_[mirror] == DiskHealth::Alive;
    if (primary_ok && mirror_ok)
        return pickReplica(disk);
    if (!primary_ok && !mirror_ok)
        fatal("DiskArray: both replicas of disk %u are offline "
              "(mirror %u) -- the scripted faults leave no copy to "
              "read",
              disk, mirror);
    degraded = true;
    ++faultCounters_.degradedReads;
    return primary_ok ? disk : mirror;
}

DiskArray::Pending*
DiskArray::acquirePending()
{
    if (pendingFree_.empty()) {
        pendingStore_.push_back(std::make_unique<Pending>());
        return pendingStore_.back().get();
    }
    Pending* p = pendingFree_.back();
    pendingFree_.pop_back();
    *p = Pending{};
    return p;
}

void
DiskArray::recyclePending(Pending* p)
{
    pendingFree_.push_back(p);
}

void
DiskArray::submitSub(unsigned disk, const SubRange& sr,
                     bool is_write, Pending* pending, bool degraded)
{
    IoRequest sub;
    sub.id = nextSubId_++;
    sub.diskId = disk;
    sub.start = sr.start;
    sub.count = sr.count;
    sub.isWrite = is_write;
    sub.degraded = degraded;
    sub.onComplete = [this, pending](const IoRequest& done,
                                     Tick when) {
        if (done.served == ServiceClass::Media)
            pending->anyMedia = true;
        if (done.served != ServiceClass::HdcHit)
            pending->anyNonHdc = true;
        pending->lastDone = std::max(pending->lastDone, when);
        if (--pending->remaining == 0) {
            ArrayRequest& r = pending->req;
            r.allCacheHits = !pending->anyMedia;
            r.allHdcHits = !pending->anyNonHdc;
            --outstanding_;
            if (r.onComplete)
                r.onComplete(r, pending->lastDone);
            recyclePending(pending);
        }
    };
    ctrls_[disk]->submit(std::move(sub));
}

void
DiskArray::submit(ArrayRequest req)
{
    if (req.count == 0)
        fatal("DiskArray: zero-length request");
    if (req.start + req.count > totalBlocks())
        fatal("DiskArray: request past end of array");

    req.issued = eq_.now();
    ++outstanding_;

    // Controller submit() only schedules events (no synchronous
    // completions), so no nested submit() can run while we iterate and
    // the scratch buffer is safe to reuse across requests.
    subsScratch_.clear();
    striping_.splitInto(req.start, req.count, subsScratch_);
    const std::vector<SubRange>& subs = subsScratch_;
    const bool is_write = req.isWrite;
    Pending* pending = acquirePending();
    pending->req = std::move(req);

    const unsigned half = striping_.disks();
    if (health_.empty()) {
        // Fast path: no disk can fail, so no health checks.
        // A mirrored write lands on both replicas of each sub-range.
        pending->remaining =
            mirrored_ && is_write ? subs.size() * 2 : subs.size();
        for (const SubRange& sr : subs) {
            if (mirrored_ && is_write) {
                submitSub(sr.disk, sr, true, pending);
                submitSub(sr.disk + half, sr, true, pending);
            } else {
                submitSub(pickReplica(sr.disk), sr, is_write,
                          pending);
            }
        }
        return;
    }

    if (mirrored_ && is_write) {
        // Writes reach every replica that is not dead (a rebuilding
        // disk must absorb writes to stay consistent). Count the
        // live targets first: controller submit() never completes
        // synchronously, but `remaining` must be final before the
        // first sub-request is issued.
        std::size_t targets = 0;
        for (const SubRange& sr : subs) {
            const bool p_dead = health_[sr.disk] == DiskHealth::Dead;
            const bool m_dead =
                health_[sr.disk + half] == DiskHealth::Dead;
            if (p_dead && m_dead)
                fatal("DiskArray: both replicas of disk %u are "
                      "offline; a write has nowhere to land",
                      sr.disk);
            targets += (p_dead || m_dead) ? 1 : 2;
        }
        pending->remaining = targets;
        for (const SubRange& sr : subs) {
            const bool p_dead = health_[sr.disk] == DiskHealth::Dead;
            const bool m_dead =
                health_[sr.disk + half] == DiskHealth::Dead;
            if (p_dead || m_dead)
                ++faultCounters_.degradedWrites;
            if (!p_dead)
                submitSub(sr.disk, sr, true, pending, m_dead);
            if (!m_dead)
                submitSub(sr.disk + half, sr, true, pending, p_dead);
        }
        return;
    }

    pending->remaining = subs.size();
    for (const SubRange& sr : subs) {
        bool degraded = false;
        const unsigned target = pickReadTarget(sr.disk, degraded);
        submitSub(target, sr, is_write, pending, degraded);
    }
}

bool
DiskArray::pinLogicalBlock(ArrayBlock lb)
{
    if (lb >= totalBlocks())
        fatal("DiskArray: pin past end of array");
    const PhysicalLoc loc = striping_.toPhysical(lb);
    if (eq_.now() > 0) {
        // Mid-run: the command pays the command latency like any
        // other host->controller command.
        pinOnDisk(loc.disk, loc.block);
        if (mirrored_)
            pinOnDisk(loc.disk + striping_.disks(), loc.block);
        return true;
    }
    bool ok = ctrls_[loc.disk]->pinBlock(loc.block);
    if (mirrored_) {
        // Pin on both replicas so either can serve reads and absorb
        // writes.
        ok = ctrls_[loc.disk + striping_.disks()]->pinBlock(
                 loc.block) &&
             ok;
    }
    return ok;
}

bool
DiskArray::unpinLogicalBlock(ArrayBlock lb)
{
    if (lb >= totalBlocks())
        fatal("DiskArray: unpin past end of array");
    const PhysicalLoc loc = striping_.toPhysical(lb);
    if (eq_.now() > 0) {
        unpinOnDisk(loc.disk, loc.block);
        if (mirrored_)
            unpinOnDisk(loc.disk + striping_.disks(), loc.block);
        return true;
    }
    bool ok = ctrls_[loc.disk]->unpinBlock(loc.block);
    if (mirrored_) {
        ok = ctrls_[loc.disk + striping_.disks()]->unpinBlock(
                 loc.block) &&
             ok;
    }
    return ok;
}

void
DiskArray::pinOnDisk(unsigned d, BlockNum b)
{
    DiskController* c = ctrls_[d].get();
    eq_.scheduleAt(eq_.now() + c->commandLatency(), [c, b]() {
        if (!c->pinBlock(b))
            fatal("DiskArray: deferred pin_blk of block %llu failed on "
                  "disk %u -- the host-side capacity model is out of "
                  "sync",
                  static_cast<unsigned long long>(b), c->diskId());
    });
}

void
DiskArray::unpinOnDisk(unsigned d, BlockNum b)
{
    DiskController* c = ctrls_[d].get();
    eq_.scheduleAt(eq_.now() + c->commandLatency(), [c, b]() {
        if (!c->unpinBlock(b))
            fatal("DiskArray: deferred unpin_blk of block %llu failed "
                  "on disk %u -- the host-side pin set is out of sync",
                  static_cast<unsigned long long>(b), c->diskId());
    });
}

void
DiskArray::failDisk(unsigned d)
{
    ++faultCounters_.diskFailures;
    if (!mirrored_)
        fatal("DiskArray: disk %u failed at tick %llu but the array "
              "is unmirrored; no redundancy exists to serve its "
              "data -- enable system.mirrored (RAID-1/0) or drop "
              "the fault.kill_at_ticks script",
              d, static_cast<unsigned long long>(eq_.now()));
    const unsigned partner = partnerOf(d);
    if (health_[partner] != DiskHealth::Alive)
        fatal("DiskArray: disk %u failed while its mirror partner "
              "%u is already offline; the mirrored pair has no "
              "readable copy left",
              d, partner);
    health_[d] = DiskHealth::Dead;
    inform("fault: disk %u failed at tick %llu (mirror partner %u "
           "takes over reads)",
           d, static_cast<unsigned long long>(eq_.now()), partner);
    if (faultHook_)
        faultHook_("failure", d, eq_.now());
}

void
DiskArray::repairDisk(unsigned d)
{
    if (health_[d] != DiskHealth::Dead)
        return;
    ++faultCounters_.diskRepairs;
    health_[d] = DiskHealth::Rebuilding;

    std::uint64_t span = fault_.rebuildBlocks == 0
                             ? ctrls_[d]->params().totalBlocks()
                             : fault_.rebuildBlocks;
    span = std::min(span, ctrls_[d]->params().totalBlocks());
    inform("fault: disk %u repaired at tick %llu; rebuilding %llu "
           "blocks from mirror %u",
           d, static_cast<unsigned long long>(eq_.now()),
           static_cast<unsigned long long>(span), partnerOf(d));
    if (faultHook_)
        faultHook_("repair", d, eq_.now());
    rebuildEnd_[d] = span;
    issueRebuildChunk(d, 0);
}

void
DiskArray::issueRebuildChunk(unsigned d, std::uint64_t start)
{
    const std::uint64_t end = rebuildEnd_[d];
    if (start >= end) {
        health_[d] = DiskHealth::Alive;
        inform("fault: disk %u rebuild complete at tick %llu",
               d, static_cast<unsigned long long>(eq_.now()));
        if (faultHook_)
            faultHook_("rebuilt", d, eq_.now());
        return;
    }
    const std::uint64_t chunk =
        std::max<std::uint64_t>(fault_.rebuildChunkBlocks, 1);
    const std::uint64_t n = std::min(chunk, end - start);
    const unsigned partner = partnerOf(d);
    // Read the chunk from the surviving replica, then write it back
    // to the repaired disk; both media jobs queue behind (and seek
    // against) foreground traffic.
    ctrls_[partner]->submitRebuild(
        start, n, false,
        [this, d, start, n](const IoRequest&, Tick) {
            ctrls_[d]->submitRebuild(
                start, n, true,
                [this, d, start, n](const IoRequest&, Tick) {
                    issueRebuildChunk(d, start + n);
                });
        });
}

std::uint64_t
DiskArray::flushAllHdc()
{
    std::uint64_t jobs = 0;
    for (auto& c : ctrls_)
        jobs += c->flushHdc();
    return jobs;
}

ControllerStats
DiskArray::aggregateStats() const
{
    ControllerStats total;
    for (const auto& c : ctrls_) {
        const ControllerStats& s = c->stats();
        total.reads += s.reads;
        total.writes += s.writes;
        total.readBlocks += s.readBlocks;
        total.writeBlocks += s.writeBlocks;
        total.cacheHitRequests += s.cacheHitRequests;
        total.hdcHitRequests += s.hdcHitRequests;
        total.hdcHitBlocks += s.hdcHitBlocks;
        total.raHitBlocks += s.raHitBlocks;
        total.mediaAccesses += s.mediaAccesses;
        total.mediaBlocks += s.mediaBlocks;
        total.readAheadBlocks += s.readAheadBlocks;
        total.flushWrites += s.flushWrites;
        total.flushBlocks += s.flushBlocks;
        total.rebuildJobs += s.rebuildJobs;
        total.rebuildBlocks += s.rebuildBlocks;
        total.seekTime += s.seekTime;
        total.rotTime += s.rotTime;
        total.xferTime += s.xferTime;
        total.mediaBusy += s.mediaBusy;
        total.queueTime += s.queueTime;
        total.busTime += s.busTime;
        total.latencySum += s.latencySum;
        total.latencyMax = std::max(total.latencyMax, s.latencyMax);
    }
    return total;
}

FaultCounters
DiskArray::faultCounters() const
{
    FaultCounters f = faultCounters_;
    for (const auto& c : ctrls_) {
        f.rebuildJobs += c->stats().rebuildJobs;
        f.rebuildBlocks += c->stats().rebuildBlocks;
    }
    return f;
}

RaCounters
DiskArray::aggregateRaCounters() const
{
    RaCounters total;
    for (const auto& c : ctrls_) {
        const RaCounters& r = c->raCounters();
        total.specInserted += r.specInserted;
        total.specUsed += r.specUsed;
        total.specWasted += r.specWasted;
    }
    return total;
}

void
DiskArray::setServiceStats(stats::ServiceStats* svc)
{
    for (auto& c : ctrls_)
        c->setServiceStats(svc);
}

void
DiskArray::setTracer(RequestTracer* tracer)
{
    for (auto& c : ctrls_)
        c->setTracer(tracer);
}

void
DiskArray::exportStats(stats::StatGroup& parent, Tick asOf) const
{
    using stats::Scalar;
    stats::StatGroup& bg = parent.makeGroup("bus");
    bg.make<Scalar>("busy_ms", "total bus busy time")
        .set(toMillis(bus_.busyTime()));
    bg.make<Scalar>("tenures", "completed bus tenures")
        .set(static_cast<double>(bus_.tenures()));
    bg.make<Scalar>("bytes", "payload bytes moved across the bus")
        .set(static_cast<double>(bus_.bytesTransferred()));
    bg.make<Scalar>("utilization", "bus busy fraction of elapsed time")
        .set(bus_.utilization(asOf ? asOf : eq_.now()));

    if (faultsEnabled()) {
        const FaultCounters f = faultCounters();
        auto addU = [](stats::StatGroup& g, const char* name,
                       const char* desc, std::uint64_t v) {
            g.make<Scalar>(name, desc)
                .set(static_cast<double>(v));
        };
        stats::StatGroup& fg = parent.makeGroup("fault");
        addU(fg, "diskFailures", "scripted whole-disk failures",
             f.diskFailures);
        addU(fg, "diskRepairs", "scripted disk repairs", f.diskRepairs);
        addU(fg, "degradedReads",
             "reads re-routed off a dead mirror replica",
             f.degradedReads);
        addU(fg, "degradedWrites",
             "writes that reached only one replica",
             f.degradedWrites);
        addU(fg, "rebuildJobs", "rebuild media jobs issued",
             f.rebuildJobs);
        addU(fg, "rebuildBlocks", "blocks copied by mirror rebuild",
             f.rebuildBlocks);
    }

    for (const auto& c : ctrls_)
        c->exportStats(parent);
}

} // namespace dtsim
