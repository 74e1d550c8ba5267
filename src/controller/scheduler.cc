#include "controller/scheduler.hh"

#include <bit>
#include <cassert>

#include "sim/logging.hh"

namespace dtsim {

void
FcfsScheduler::doPush(MediaJob* job)
{
    queue_.push_back(job);
}

MediaJob*
FcfsScheduler::doPop(std::uint32_t)
{
    if (queue_.empty())
        return nullptr;
    MediaJob* job = queue_.front();
    queue_.pop_front();
    return job;
}

const char*
SweepScheduler::name() const
{
    switch (kind_) {
      case Kind::LOOK: return "LOOK";
      case Kind::CLOOK: return "C-LOOK";
      case Kind::SSTF: return "SSTF";
    }
    return "?";
}

void
SweepScheduler::ensureCylinder(std::uint32_t cyl)
{
    if (cyl < buckets_.size())
        return;
    // Grow geometrically; cylinder counts are bounded by the drive
    // geometry, so this settles after the first few pushes.
    std::size_t n = buckets_.empty() ? 64 : buckets_.size();
    while (n <= cyl)
        n *= 2;
    buckets_.resize(n);
    bits_.resize((n + 63) / 64, 0);
    summary_.resize((bits_.size() + 63) / 64, 0);
}

void
SweepScheduler::setBit(std::uint32_t cyl)
{
    const std::size_t w = cyl >> 6;
    bits_[w] |= std::uint64_t{1} << (cyl & 63);
    summary_[w >> 6] |= std::uint64_t{1} << (w & 63);
}

void
SweepScheduler::clearBit(std::uint32_t cyl)
{
    const std::size_t w = cyl >> 6;
    bits_[w] &= ~(std::uint64_t{1} << (cyl & 63));
    if (bits_[w] == 0)
        summary_[w >> 6] &= ~(std::uint64_t{1} << (w & 63));
}

bool
SweepScheduler::findAtOrAbove(std::uint32_t c, std::uint32_t* out) const
{
    if (c >= buckets_.size())
        return false;
    std::size_t w = c >> 6;
    std::uint64_t word = bits_[w] & (~std::uint64_t{0} << (c & 63));
    if (!word) {
        // Scan the summary for the next non-empty word after w.
        std::size_t sw = w >> 6;
        std::uint64_t s = (w & 63) == 63
            ? 0
            : summary_[sw] & (~std::uint64_t{0} << ((w & 63) + 1));
        for (;;) {
            if (s) {
                w = (sw << 6) +
                    static_cast<std::size_t>(std::countr_zero(s));
                word = bits_[w];
                break;
            }
            if (++sw >= summary_.size())
                return false;
            s = summary_[sw];
        }
    }
    *out = static_cast<std::uint32_t>(
        (w << 6) + static_cast<std::size_t>(std::countr_zero(word)));
    return true;
}

bool
SweepScheduler::findAtOrBelow(std::uint32_t c, std::uint32_t* out) const
{
    if (buckets_.empty())
        return false;
    if (c >= buckets_.size())
        c = static_cast<std::uint32_t>(buckets_.size() - 1);
    std::size_t w = c >> 6;
    std::uint64_t word = bits_[w] &
        ((c & 63) == 63 ? ~std::uint64_t{0}
                        : (std::uint64_t{1} << ((c & 63) + 1)) - 1);
    if (!word) {
        // Scan the summary for the last non-empty word before w.
        std::size_t sw = w >> 6;
        std::uint64_t s = (w & 63) == 0
            ? 0
            : summary_[sw] & ((std::uint64_t{1} << (w & 63)) - 1);
        for (;;) {
            if (s) {
                w = (sw << 6) + 63 -
                    static_cast<std::size_t>(std::countl_zero(s));
                word = bits_[w];
                break;
            }
            if (sw == 0)
                return false;
            s = summary_[--sw];
        }
    }
    *out = static_cast<std::uint32_t>(
        (w << 6) + 63 -
        static_cast<std::size_t>(std::countl_zero(word)));
    return true;
}

void
SweepScheduler::doPush(MediaJob* job)
{
    const std::uint32_t cyl = job->cylinder;
    ensureCylinder(cyl);

    std::uint32_t n;
    if (freeHead_ != kNull) {
        n = freeHead_;
        freeHead_ = slots_[n].next;
    } else {
        n = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    JobSlot& slot = slots_[n];
    slot.job = job;
    slot.next = kNull;

    Bucket& b = buckets_[cyl];
    slot.prev = b.tail;
    if (b.tail != kNull) {
        slots_[b.tail].next = n;
    } else {
        b.head = n;
        setBit(cyl);
    }
    b.tail = n;
    ++count_;
}

MediaJob*
SweepScheduler::takeSlot(std::uint32_t cyl, std::uint32_t n)
{
    JobSlot& slot = slots_[n];
    Bucket& b = buckets_[cyl];
    if (slot.prev != kNull)
        slots_[slot.prev].next = slot.next;
    else
        b.head = slot.next;
    if (slot.next != kNull)
        slots_[slot.next].prev = slot.prev;
    else
        b.tail = slot.prev;
    if (b.head == kNull)
        clearBit(cyl);

    MediaJob* job = slot.job;
    slot.job = nullptr;
    slot.next = freeHead_;
    freeHead_ = n;
    --count_;
    return job;
}

MediaJob*
SweepScheduler::popFront(std::uint32_t cyl)
{
    assert(buckets_[cyl].head != kNull);
    return takeSlot(cyl, buckets_[cyl].head);
}

MediaJob*
SweepScheduler::popBack(std::uint32_t cyl)
{
    assert(buckets_[cyl].tail != kNull);
    return takeSlot(cyl, buckets_[cyl].tail);
}

MediaJob*
SweepScheduler::doPop(std::uint32_t cylinder)
{
    if (count_ == 0)
        return nullptr;

    // Pop order mirrors the multimap implementation this replaced:
    // a lower_bound-style pick is the oldest job of its cylinder
    // (front), a prev(upper_bound)/prev(end) pick the newest (back).
    std::uint32_t c;
    switch (kind_) {
      case Kind::LOOK: {
        if (goingUp_) {
            if (findAtOrAbove(cylinder, &c))
                return popFront(c);
            goingUp_ = false;
            findAtOrBelow(cylinder, &c);
            return popBack(c);
        }
        if (findAtOrBelow(cylinder, &c))
            return popBack(c);
        goingUp_ = true;
        findAtOrAbove(0, &c);
        return popFront(c);
      }
      case Kind::CLOOK: {
        if (!findAtOrAbove(cylinder, &c))
            findAtOrAbove(0, &c);    // Wrap to the lowest.
        return popFront(c);
      }
      case Kind::SSTF: {
        std::uint32_t up;
        const bool has_up = findAtOrAbove(cylinder, &up);
        std::uint32_t down;
        const bool has_down =
            cylinder > 0 && findAtOrBelow(cylinder - 1, &down);
        if (!has_up)
            return popBack(down);
        if (!has_down)
            return popFront(up);
        const std::uint32_t d_up = up - cylinder;
        const std::uint32_t d_down = cylinder - down;
        return d_down <= d_up ? popBack(down) : popFront(up);
      }
    }
    panic("SweepScheduler: bad kind");
}

const char*
schedulerKindName(SchedulerKind k)
{
    switch (k) {
      case SchedulerKind::FCFS: return "FCFS";
      case SchedulerKind::LOOK: return "LOOK";
      case SchedulerKind::CLOOK: return "C-LOOK";
      case SchedulerKind::SSTF: return "SSTF";
    }
    return "?";
}

std::unique_ptr<Scheduler>
makeScheduler(SchedulerKind kind)
{
    switch (kind) {
      case SchedulerKind::FCFS:
        return std::make_unique<FcfsScheduler>();
      case SchedulerKind::LOOK:
        return std::make_unique<SweepScheduler>(
            SweepScheduler::Kind::LOOK);
      case SchedulerKind::CLOOK:
        return std::make_unique<SweepScheduler>(
            SweepScheduler::Kind::CLOOK);
      case SchedulerKind::SSTF:
        return std::make_unique<SweepScheduler>(
            SweepScheduler::Kind::SSTF);
    }
    panic("makeScheduler: bad kind");
}

} // namespace dtsim
