/**
 * @file
 * The discrete-event simulation kernel.
 *
 * DTSim is an event-driven simulator in the style of the MINT-based
 * simulator used by the paper: every modeled component schedules
 * callbacks on a single global-order event queue. Events at the same
 * tick fire in scheduling order, which keeps runs deterministic.
 */

#ifndef DTSIM_SIM_EVENT_QUEUE_HH
#define DTSIM_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <vector>

#include "sim/small_function.hh"
#include "sim/ticks.hh"

namespace dtsim {

/**
 * A single-threaded discrete-event queue.
 *
 * Components schedule std::function callbacks at absolute or relative
 * ticks; run() pops events in (tick, insertion-order) order until the
 * queue drains or a limit is reached.
 *
 * Internals (see DESIGN.md, "Event kernel"): scheduled callbacks live
 * in a pooled slot array that is reused across events, so steady-state
 * scheduling performs no per-event container allocation. The ready
 * order is kept in a 4-ary array heap of plain (tick, seq, slot)
 * nodes — callbacks are never moved during sift operations. An
 * EventId encodes (generation << 32) | slot; cancel() is an O(1)
 * tombstone flag validated against the slot's current generation, and
 * tombstoned nodes are dropped lazily when they reach the heap front.
 */
class EventQueue
{
  public:
    /**
     * Scheduled callback. The inline buffer holds every per-request
     * closure (a `this` pointer, an in-flight record pointer and one
     * tick), so steady-state scheduling allocates nothing; larger,
     * rare captures spill to the heap transparently (DESIGN.md,
     * "Performance engineering").
     */
    using Callback = SmallFunction<void(), 24>;

    /**
     * Opaque handle identifying a scheduled event (for cancellation).
     * Encodes a pool slot plus a generation tag so a handle from a
     * fired or cancelled event can never alias a later event that
     * reuses the same slot.
     */
    using EventId = std::uint64_t;

    EventQueue() = default;

    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule a callback at an absolute tick.
     *
     * @param when Absolute fire time; must be >= now().
     * @param cb Callback to invoke.
     * @return Handle usable with cancel().
     */
    EventId scheduleAt(Tick when, Callback cb);

    /** Schedule a callback `delay` ticks from now. */
    EventId scheduleAfter(Tick delay, Callback cb);

    /**
     * Schedule a callback at an absolute tick, ahead of every normal
     * event at that tick. Front events fire in their own FIFO order
     * before any scheduleAt()/scheduleAfter() event with the same
     * `when`, regardless of scheduling order. Used for housekeeping
     * (periodic snapshots, online HDC re-plans) that
     * must observe the state *before* the tick's simulation work
     * runs.
     */
    EventId scheduleAtFront(Tick when, Callback cb);

    /**
     * Cancel a previously scheduled event.
     *
     * @return true if the event was pending and is now cancelled;
     *         false if it already fired or was already cancelled.
     */
    bool cancel(EventId id);

    /** Number of pending (non-cancelled) events. */
    std::size_t pending() const { return size_; }

    /** True when no events are pending. */
    bool empty() const { return pending() == 0; }

    /**
     * Run until the queue drains or `max_events` fire.
     *
     * @return Number of events fired.
     */
    std::uint64_t run(std::uint64_t max_events = ~std::uint64_t(0));

    /**
     * Run until simulated time would exceed `until` (events at exactly
     * `until` still fire). Time advances to `until` if the queue drains
     * earlier.
     *
     * @return Number of events fired.
     */
    std::uint64_t runUntil(Tick until);

    /** Fire exactly one event, if any. @return true if one fired. */
    bool step();

    /** Total events fired over the queue's lifetime. */
    std::uint64_t fired() const { return fired_; }

  private:
    /** Pooled storage for one scheduled callback. */
    struct Slot
    {
        Callback cb;

        /** Bumped on release; stale EventIds fail the tag check. */
        std::uint32_t gen = 0;

        bool live = false;
        bool cancelled = false;
    };

    /** One heap node: plain data, cheap to move during sifts. */
    struct Node
    {
        Tick when;

        /**
         * Tie-break at equal `when`. Normal events carry bit 63 set
         * over a global schedule counter; front events carry a
         * separate low counter with bit 63 clear, so every front
         * event sorts before every normal event at the same tick
         * while each class stays FIFO within itself.
         */
        std::uint64_t seq;

        std::uint32_t slot;
    };

    /** Seq-space tag separating normal events from front events. */
    static constexpr std::uint64_t kNormalSeqBit = 1ull << 63;

    static bool
    before(const Node& a, const Node& b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    EventId scheduleImpl(Tick when, Callback&& cb, bool front);

    std::uint32_t allocSlot(Callback&& cb);
    void releaseSlot(std::uint32_t index);

    void heapPush(Node node);
    void heapPopFront();

    /**
     * Drop cancelled entries off the heap front.
     * @return true if a live event remains at the front.
     */
    bool skipCancelled();

    /** Pop and fire the front event. Requires a live front event. */
    void fireNext();

    /** 4-ary min-heap ordered by (when, seq). */
    std::vector<Node> heap_;

    std::vector<Slot> slots_;
    std::vector<std::uint32_t> freeSlots_;

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t nextFrontSeq_ = 1;
    std::size_t size_ = 0;
    std::uint64_t fired_ = 0;
};

} // namespace dtsim

#endif // DTSIM_SIM_EVENT_QUEUE_HH
