#include "cache/segment_cache.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace dtsim {

const char*
segmentPolicyName(SegmentPolicy p)
{
    switch (p) {
      case SegmentPolicy::LRU: return "LRU";
      case SegmentPolicy::FIFO: return "FIFO";
      case SegmentPolicy::Random: return "Random";
      case SegmentPolicy::RoundRobin: return "RoundRobin";
    }
    return "?";
}

SegmentCache::SegmentCache(std::uint64_t num_segments,
                           std::uint64_t segment_blocks,
                           SegmentPolicy policy, std::uint64_t seed)
    : start_(num_segments, kNone), end_(num_segments, kNone),
      lastUse_(num_segments), created_(num_segments),
      specFrom_(num_segments), segmentBlocks_(segment_blocks),
      policy_(policy), rng_(seed)
{
    if (num_segments == 0 || segment_blocks == 0)
        fatal("SegmentCache: segments and segment size must be > 0");
}

int
SegmentCache::findSegment(BlockNum block) const
{
    for (std::size_t i = 0; i < start_.size(); ++i)
        if (holds(i, block))
            return static_cast<int>(i);
    return -1;
}

std::uint64_t
SegmentCache::specBlocks(std::size_t i) const
{
    const BlockNum lo = std::max(start_[i], specFrom_[i]);
    return lo < end_[i] ? end_[i] - lo : 0;
}

void
SegmentCache::consumeSpec(std::size_t i, BlockNum c_lo, BlockNum c_hi)
{
    const BlockNum spec_lo = std::max(start_[i], specFrom_[i]);
    if (spec_lo >= end_[i] || c_hi <= spec_lo)
        return;
    const BlockNum hi = std::min(c_hi, end_[i]);
    // Blocks [spec_lo, hi) leave the speculative state: those at or
    // after c_lo were consumed, those before were skipped over by a
    // non-sequential access and will not hit sequentially again.
    ra_.specUsed += hi - std::max(c_lo, spec_lo);
    if (c_lo > spec_lo)
        ra_.specWasted += c_lo - spec_lo;
    specFrom_[i] = std::max(specFrom_[i], hi);
}

void
SegmentCache::drop(std::size_t i)
{
    start_[i] = kNone;
    end_[i] = kNone;
    --validCount_;
}

std::uint64_t
SegmentCache::lookupPrefix(BlockNum start, std::uint64_t count)
{
    ++clock_;
    const int idx = findSegment(start);
    if (idx < 0)
        return 0;
    const auto i = static_cast<std::size_t>(idx);
    lastUse_[i] = clock_;
    std::uint64_t hits = std::min(count, end_[i] - start);
    consumeSpec(i, start, start + hits);
    // The run may continue in an adjacent segment (stream split after
    // a very large read); follow it.
    while (hits < count) {
        const int nxt = findSegment(start + hits);
        if (nxt < 0)
            break;
        const auto n = static_cast<std::size_t>(nxt);
        lastUse_[n] = clock_;
        const std::uint64_t more =
            std::min(count - hits, end_[n] - (start + hits));
        consumeSpec(n, start + hits, start + hits + more);
        hits += more;
    }
    return hits;
}

std::uint64_t
SegmentCache::lookupPrefixBlockwise(BlockNum start, std::uint64_t count)
{
    std::uint64_t hits = 0;
    while (hits < count) {
        const BlockNum b = start + hits;
        // The per-block call would pick the lowest-index segment
        // holding b, and keep picking it until its run ends or a
        // lower-index segment that does not hold b yet starts.
        BlockNum limit = kNone;
        std::size_t i = 0;
        for (; i < start_.size(); ++i) {
            if (holds(i, b))
                break;
            if (start_[i] > b)
                limit = std::min(limit, start_[i]);
        }
        if (i == start_.size()) {
            ++clock_;   // The terminating miss ticks once.
            break;
        }
        limit = std::min(limit, end_[i]);
        // n per-block hits tick the clock n times, leave the last
        // tick in lastUse, and consume [b, b + n) one block at a
        // time, which consumeSpec sums exactly.
        const std::uint64_t n = std::min(count - hits, limit - b);
        clock_ += n;
        lastUse_[i] = clock_;
        consumeSpec(i, b, b + n);
        hits += n;
    }
    return hits;
}

bool
SegmentCache::contains(BlockNum block) const
{
    return findSegment(block) >= 0;
}

std::size_t
SegmentCache::pickVictim()
{
    // Prefer an unused segment (skip the scan when all are valid).
    if (validCount_ < start_.size())
        for (std::size_t i = 0; i < start_.size(); ++i)
            if (!isValid(i))
                return i;

    ++replacements_;
    switch (policy_) {
      case SegmentPolicy::LRU:
        return static_cast<std::size_t>(
            std::min_element(lastUse_.begin(), lastUse_.end()) -
            lastUse_.begin());
      case SegmentPolicy::FIFO:
        return static_cast<std::size_t>(
            std::min_element(created_.begin(), created_.end()) -
            created_.begin());
      case SegmentPolicy::Random:
        return static_cast<std::size_t>(rng_.below(start_.size()));
      case SegmentPolicy::RoundRobin: {
        const std::size_t v = rrCursor_;
        rrCursor_ = (rrCursor_ + 1) % start_.size();
        return v;
      }
    }
    return 0;
}

void
SegmentCache::insertRun(BlockNum start, std::uint64_t count,
                        std::uint64_t spec_offset)
{
    if (count == 0)
        return;
    ++clock_;

    const BlockNum run_end = start + count;
    const BlockNum run_spec_lo = start + std::min(spec_offset, count);

    // Stream continuation: extend the segment that ends where this run
    // starts (the segment keeps only its most recent segmentBlocks_),
    // or fall back to a segment already containing the run start
    // (re-read). One scan finds both candidates; appendable wins.
    int idx = -1;
    int containing = -1;
    for (std::size_t i = 0; i < start_.size(); ++i) {
        if (end_[i] == start) {
            idx = static_cast<int>(i);
            break;
        }
        if (containing < 0 && holds(i, start))
            containing = static_cast<int>(i);
    }
    if (idx < 0)
        idx = containing;
    if (idx >= 0) {
        const auto i = static_cast<std::size_t>(idx);
        // Retire any old unconsumed read-ahead the demand portion
        // overlaps or skips: blocks the host demanded count as used,
        // blocks jumped over count as wasted.
        const BlockNum spec_lo = std::max(start_[i], specFrom_[i]);
        if (spec_lo < end_[i] && run_spec_lo > spec_lo) {
            const BlockNum hi = std::min(run_spec_lo, end_[i]);
            ra_.specUsed += hi - std::max(start, spec_lo);
            if (start > spec_lo)
                ra_.specWasted += std::min(start, hi) - spec_lo;
        }
        const BlockNum old_end = end_[i];
        end_[i] = std::max(end_[i], run_end);
        if (end_[i] > old_end) {
            const BlockNum new_lo = std::max(old_end, run_spec_lo);
            if (end_[i] > new_lo)
                ra_.specInserted += end_[i] - new_lo;
        }
        specFrom_[i] = std::max(specFrom_[i], run_spec_lo);
        if (end_[i] - start_[i] > segmentBlocks_) {
            const BlockNum new_start = end_[i] - segmentBlocks_;
            const BlockNum trim_spec = std::max(start_[i], specFrom_[i]);
            if (trim_spec < new_start)
                ra_.specWasted += new_start - trim_spec;
            start_[i] = new_start;
            specFrom_[i] = std::max(specFrom_[i], new_start);
        }
        lastUse_[i] = clock_;
        return;
    }

    // New stream: take a whole victim segment.
    const std::size_t v = pickVictim();
    if (isValid(v))
        ra_.specWasted += specBlocks(v);
    else
        ++validCount_;
    end_[v] = run_end;
    start_[v] = count > segmentBlocks_ ? run_end - segmentBlocks_ : start;
    specFrom_[v] = std::max(run_spec_lo, start_[v]);
    if (end_[v] > specFrom_[v])
        ra_.specInserted += end_[v] - specFrom_[v];
    lastUse_[v] = clock_;
    created_[v] = clock_;
}

void
SegmentCache::invalidateRange(BlockNum start, std::uint64_t count)
{
    const BlockNum lo = start;
    const BlockNum hi = start + count;
    for (std::size_t i = 0; i < start_.size(); ++i) {
        // An unused segment starts at kNone, past any hi.
        if (hi <= start_[i] || lo >= end_[i])
            continue;
        // Unconsumed read-ahead dropped by the invalidation is wasted.
        const BlockNum spec_lo = std::max(start_[i], specFrom_[i]);
        if (lo <= start_[i] && hi >= end_[i]) {
            ra_.specWasted += specBlocks(i);
            drop(i);                    // Fully covered.
        } else if (lo <= start_[i]) {
            if (spec_lo < hi && spec_lo < end_[i])
                ra_.specWasted += std::min(hi, end_[i]) - spec_lo;
            start_[i] = hi;             // Head overlap.
            specFrom_[i] = std::max(specFrom_[i], hi);
        } else {
            if (std::max(spec_lo, lo) < end_[i])
                ra_.specWasted += end_[i] - std::max(spec_lo, lo);
            end_[i] = lo;               // Tail (or middle) overlap:
        }                               // drop everything from lo on.
        // A partial cut leaves start < hi < end or start < lo = end,
        // so it never empties the segment.
    }
}

std::uint64_t
SegmentCache::usedBlocks() const
{
    std::uint64_t used = 0;
    for (std::size_t i = 0; i < start_.size(); ++i)
        used += end_[i] - start_[i];
    return used;
}

} // namespace dtsim
