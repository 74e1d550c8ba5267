#include "fault/fault_model.hh"

#include "sim/logging.hh"

namespace dtsim {

namespace {

/**
 * Mix the fault seed with the disk id so every disk gets its own
 * stream while staying a pure function of fault.seed.
 */
std::uint64_t
diskSeed(std::uint64_t seed, unsigned disk)
{
    return seed + 0x9e3779b97f4a7c15ULL * (disk + 1ULL);
}

} // namespace

DiskFaults::DiskFaults(const FaultConfig& cfg, unsigned disk,
                       FaultCounters& counters)
    : cfg_(cfg), counters_(&counters),
      rng_(diskSeed(cfg.seed, disk))
{
    std::vector<BadBlockSpec> specs;
    std::string err;
    if (!fault::parseBadBlocks(cfg.badBlocks, specs, err))
        fatal("fault: %s", err.c_str());
    for (const BadBlockSpec& s : specs)
        if (s.disk == disk)
            bad_.insert(s.block);
    if (!fault::parseStallWindows(cfg.stallWindows, windows_, err))
        fatal("fault: %s", err.c_str());
}

bool
DiskFaults::attemptFails(std::uint64_t start, std::uint64_t count)
{
    auto it = bad_.lower_bound(start);
    if (it != bad_.end() && *it < start + count)
        return true;
    if (cfg_.mediaErrorRate > 0.0 &&
        rng_.chance(cfg_.mediaErrorRate))
        return true;
    return false;
}

std::uint64_t
DiskFaults::remapRange(std::uint64_t start, std::uint64_t count)
{
    std::uint64_t moved = 0;
    auto it = bad_.lower_bound(start);
    while (it != bad_.end() && *it < start + count) {
        remapped_.insert(*it);
        it = bad_.erase(it);
        ++moved;
    }
    if (moved == 0) {
        // Purely probabilistic failure: pin the blame on the first
        // block of the range so the penalty is reproducible.
        remapped_.insert(start);
        moved = 1;
    }
    return moved;
}

bool
DiskFaults::touchesRemapped(std::uint64_t start,
                            std::uint64_t count) const
{
    auto it = remapped_.lower_bound(start);
    return it != remapped_.end() && *it < start + count;
}

Tick
DiskFaults::dispatchDelay(Tick now)
{
    for (const StallWindow& w : windows_) {
        if (now >= w.start && now < w.start + w.duration) {
            const Tick delay = w.start + w.duration - now;
            ++counters_->stalls;
            counters_->stallTicks += delay;
            return delay;
        }
    }
    if (cfg_.timeoutRate > 0.0 && rng_.chance(cfg_.timeoutRate)) {
        if (backoff_ == 0)
            backoff_ = fromMicros(cfg_.backoffUs);
        const Tick delay = backoff_;
        const Tick cap = fromMicros(cfg_.backoffMaxUs);
        backoff_ = backoff_ * 2 > cap ? cap : backoff_ * 2;
        ++counters_->stalls;
        counters_->stallTicks += delay;
        return delay;
    }
    backoff_ = 0;
    return 0;
}

FaultModel::FaultModel(const FaultConfig& cfg, unsigned disks)
    : cfg_(cfg), health_(disks, DiskHealth::Alive)
{
    disks_.reserve(disks);
    for (unsigned d = 0; d < disks; ++d)
        disks_.push_back(
            std::make_unique<DiskFaults>(cfg_, d, counters_));
}

} // namespace dtsim
