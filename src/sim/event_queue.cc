#include "sim/event_queue.hh"

#include <cassert>
#include <stdexcept>
#include <utility>

#ifdef DTSIM_DEBUG_PAST_SCHEDULE
#include <cstdio>
#include <execinfo.h>
#endif

namespace dtsim {

namespace {

/** 4-ary heap index arithmetic. */
constexpr std::size_t kHeapArity = 4;

constexpr std::size_t
heapParent(std::size_t i)
{
    return (i - 1) / kHeapArity;
}

constexpr std::size_t
heapFirstChild(std::size_t i)
{
    return kHeapArity * i + 1;
}

constexpr std::uint64_t
makeEventId(std::uint32_t gen, std::uint32_t slot)
{
    return (static_cast<std::uint64_t>(gen) << 32) | slot;
}

} // namespace

std::uint32_t
EventQueue::allocSlot(Callback&& cb)
{
    std::uint32_t index;
    if (!freeSlots_.empty()) {
        index = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        index = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    Slot& s = slots_[index];
    s.cb = std::move(cb);
    s.live = true;
    s.cancelled = false;
    return index;
}

void
EventQueue::releaseSlot(std::uint32_t index)
{
    Slot& s = slots_[index];
    s.cb = nullptr;
    s.live = false;
    s.cancelled = false;
    ++s.gen;
    freeSlots_.push_back(index);
}

void
EventQueue::heapPush(Node node)
{
    heap_.push_back(node);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
        const std::size_t parent = heapParent(i);
        if (!before(heap_[i], heap_[parent]))
            break;
        std::swap(heap_[i], heap_[parent]);
        i = parent;
    }
}

void
EventQueue::heapPopFront()
{
    assert(!heap_.empty());
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (heap_.empty())
        return;

    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (;;) {
        const std::size_t first = heapFirstChild(i);
        if (first >= n)
            break;
        std::size_t best = first;
        const std::size_t last = std::min(first + kHeapArity, n);
        for (std::size_t c = first + 1; c < last; ++c) {
            if (before(heap_[c], heap_[best]))
                best = c;
        }
        if (!before(heap_[best], heap_[i]))
            break;
        std::swap(heap_[i], heap_[best]);
        i = best;
    }
}

EventQueue::EventId
EventQueue::scheduleImpl(Tick when, Callback&& cb, bool front)
{
    if (when < now_) {
#ifdef DTSIM_DEBUG_PAST_SCHEDULE
        std::fprintf(stderr,
                     "PAST SCHEDULE: when=%llu now=%llu queue=%p\n",
                     (unsigned long long)when, (unsigned long long)now_,
                     (void*)this);
        void* frames[32];
        const int n = backtrace(frames, 32);
        backtrace_symbols_fd(frames, n, 2);
#endif
        throw std::logic_error("EventQueue: scheduling in the past");
    }
    const std::uint32_t slot = allocSlot(std::move(cb));
    const std::uint64_t seq =
        front ? nextFrontSeq_++ : (kNormalSeqBit | nextSeq_++);
    heapPush(Node{when, seq, slot});
    ++size_;
    return makeEventId(slots_[slot].gen, slot);
}

EventQueue::EventId
EventQueue::scheduleAt(Tick when, Callback cb)
{
    return scheduleImpl(when, std::move(cb), false);
}

EventQueue::EventId
EventQueue::scheduleAfter(Tick delay, Callback cb)
{
    return scheduleImpl(now_ + delay, std::move(cb), false);
}

EventQueue::EventId
EventQueue::scheduleAtFront(Tick when, Callback cb)
{
    return scheduleImpl(when, std::move(cb), true);
}

bool
EventQueue::cancel(EventId id)
{
    const std::uint32_t slot = static_cast<std::uint32_t>(id);
    const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
    if (slot >= slots_.size())
        return false;
    Slot& s = slots_[slot];
    if (s.gen != gen || !s.live || s.cancelled)
        return false;
    s.cancelled = true;
    // Drop the callback now so captured resources are released at
    // cancel time, not when the tombstone reaches the heap front.
    s.cb = nullptr;
    --size_;
    return true;
}

bool
EventQueue::skipCancelled()
{
    while (!heap_.empty()) {
        const std::uint32_t slot = heap_.front().slot;
        if (!slots_[slot].cancelled)
            return true;
        releaseSlot(slot);
        heapPopFront();
    }
    return false;
}

bool
EventQueue::step()
{
    if (!skipCancelled())
        return false;
    fireNext();
    return true;
}

void
EventQueue::fireNext()
{
    const Node front = heap_.front();
    assert(front.when >= now_);
    now_ = front.when;
    Callback cb = std::move(slots_[front.slot].cb);
    releaseSlot(front.slot);
    heapPopFront();
    --size_;
    ++fired_;
    cb();
}

std::uint64_t
EventQueue::run(std::uint64_t max_events)
{
    std::uint64_t n = 0;
    while (n < max_events && step())
        ++n;
    return n;
}

std::uint64_t
EventQueue::runUntil(Tick until)
{
    std::uint64_t n = 0;
    while (skipCancelled() && heap_.front().when <= until) {
        fireNext();
        ++n;
    }
    if (now_ < until)
        now_ = until;
    return n;
}

} // namespace dtsim
