/** @file Unit tests for the discrete-event kernel. */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "sim/event_queue.hh"

namespace dtsim {
namespace {

TEST(EventQueue, StartsEmptyAtTimeZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(30, [&] { order.push_back(3); });
    eq.scheduleAt(10, [&] { order.push_back(1); });
    eq.scheduleAt(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickFiresInScheduleOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.scheduleAt(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, TimeAdvancesToFiredEvent)
{
    EventQueue eq;
    Tick seen = 0;
    eq.scheduleAt(123, [&] { seen = eq.now(); });
    eq.run();
    EXPECT_EQ(seen, 123u);
}

TEST(EventQueue, SchedulingInPastThrows)
{
    EventQueue eq;
    eq.scheduleAt(100, [] {});
    eq.run();
    EXPECT_THROW(eq.scheduleAt(50, [] {}), std::logic_error);
}

TEST(EventQueue, ScheduleAfterIsRelative)
{
    EventQueue eq;
    Tick seen = 0;
    eq.scheduleAt(100, [&] {
        eq.scheduleAfter(25, [&] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 125u);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 5)
            eq.scheduleAfter(10, chain);
    };
    eq.scheduleAt(0, chain);
    eq.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueue, CancelPreventsFiring)
{
    EventQueue eq;
    bool fired = false;
    const auto id = eq.scheduleAt(10, [&] { fired = true; });
    EXPECT_TRUE(eq.cancel(id));
    eq.run();
    EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceFails)
{
    EventQueue eq;
    const auto id = eq.scheduleAt(10, [] {});
    EXPECT_TRUE(eq.cancel(id));
    EXPECT_FALSE(eq.cancel(id));
}

TEST(EventQueue, CancelAfterFireFails)
{
    EventQueue eq;
    const auto id = eq.scheduleAt(10, [] {});
    eq.run();
    EXPECT_FALSE(eq.cancel(id));
}

TEST(EventQueue, CancelUpdatesPendingCount)
{
    EventQueue eq;
    const auto a = eq.scheduleAt(10, [] {});
    eq.scheduleAt(20, [] {});
    EXPECT_EQ(eq.pending(), 2u);
    eq.cancel(a);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, RunWithLimitStopsEarly)
{
    EventQueue eq;
    int count = 0;
    for (int i = 0; i < 10; ++i)
        eq.scheduleAt(static_cast<Tick>(i), [&] { ++count; });
    EXPECT_EQ(eq.run(4), 4u);
    EXPECT_EQ(count, 4);
    EXPECT_EQ(eq.pending(), 6u);
}

TEST(EventQueue, RunUntilStopsAtBoundary)
{
    EventQueue eq;
    std::vector<Tick> fired;
    for (Tick t : {10u, 20u, 30u, 40u})
        eq.scheduleAt(t, [&fired, &eq] { fired.push_back(eq.now()); });
    eq.runUntil(25);
    EXPECT_EQ(fired, (std::vector<Tick>{10, 20}));
    EXPECT_EQ(eq.now(), 25u);
    eq.run();
    EXPECT_EQ(fired.size(), 4u);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenIdle)
{
    EventQueue eq;
    eq.runUntil(500);
    EXPECT_EQ(eq.now(), 500u);
}

TEST(EventQueue, FiredCounterAccumulates)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.scheduleAt(static_cast<Tick>(i), [] {});
    eq.run();
    EXPECT_EQ(eq.fired(), 7u);
}

TEST(EventQueue, IdsNotReusedAcrossGenerations)
{
    // A fired (or cancelled) event's slot is recycled for later
    // events, but the generation tag must keep the old handle dead:
    // cancelling a stale id can never hit the slot's new occupant.
    EventQueue eq;
    const auto first = eq.scheduleAt(10, [] {});
    eq.run();

    bool fired = false;
    const auto second = eq.scheduleAt(20, [&] { fired = true; });
    EXPECT_NE(first, second);
    EXPECT_FALSE(eq.cancel(first));
    eq.run();
    EXPECT_TRUE(fired);

    // Same via the cancel path: a cancelled id stays dead after its
    // slot is reused.
    const auto third = eq.scheduleAt(30, [] {});
    EXPECT_TRUE(eq.cancel(third));
    eq.run();
    bool fourth_fired = false;
    const auto fourth = eq.scheduleAt(40, [&] {
        fourth_fired = true;
    });
    EXPECT_NE(third, fourth);
    EXPECT_FALSE(eq.cancel(third));
    eq.run();
    EXPECT_TRUE(fourth_fired);
}

TEST(EventQueue, InterleavedScheduleCancelChurn)
{
    // Heavy schedule/cancel interleaving: every third event is
    // cancelled, some before and some after intervening fires, and
    // the survivors must fire exactly once in order.
    EventQueue eq;
    std::vector<int> fired;
    std::vector<EventQueue::EventId> ids;
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 20; ++i) {
            const int tag = round * 20 + i;
            ids.push_back(eq.scheduleAfter(
                static_cast<Tick>(1 + (tag * 31) % 97),
                [&fired, tag] { fired.push_back(tag); }));
        }
        for (std::size_t k = ids.size() - 20; k < ids.size();
             k += 3) {
            EXPECT_TRUE(eq.cancel(ids[k]));
            EXPECT_FALSE(eq.cancel(ids[k]));
        }
        eq.run(5);
    }
    eq.run();
    EXPECT_TRUE(eq.empty());

    // 7 of every 20 scheduled events are cancelled (indices 0,3,..18
    // within each round's batch)...
    EXPECT_EQ(fired.size(), 50u * 20u - 50u * 7u);
    // ...and no event fires twice.
    std::vector<int> sorted = fired;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                sorted.end());
}

TEST(EventQueue, DeterministicFireOrderUnderChurn)
{
    // The kernel contract: identical schedule/cancel sequences give
    // identical fire order, including (tick, insertion-order) ties.
    auto run_once = [] {
        EventQueue eq;
        std::vector<int> order;
        std::vector<EventQueue::EventId> ids;
        for (int i = 0; i < 500; ++i) {
            const Tick when = static_cast<Tick>((i * 7919) % 50);
            ids.push_back(eq.scheduleAt(
                when, [&order, i] { order.push_back(i); }));
            if (i % 5 == 2)
                eq.cancel(ids[static_cast<std::size_t>(i) / 2]);
        }
        eq.run();
        return order;
    };
    const std::vector<int> a = run_once();
    const std::vector<int> b = run_once();
    EXPECT_EQ(a, b);
    EXPECT_FALSE(a.empty());
}

TEST(EventQueue, CancelFromInsideCallback)
{
    // A callback cancelling a later event already in the heap.
    EventQueue eq;
    bool late_fired = false;
    const auto late = eq.scheduleAt(100, [&] { late_fired = true; });
    eq.scheduleAt(50, [&] { EXPECT_TRUE(eq.cancel(late)); });
    eq.run();
    EXPECT_FALSE(late_fired);
    EXPECT_EQ(eq.now(), 50u);
}

TEST(EventQueue, FrontEventsRunBeforeNormalSameTick)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(10, [&] { order.push_back(1); });
    eq.scheduleAt(10, [&] { order.push_back(2); });
    // Scheduled last, but the front class beats every normal event
    // at the same tick.
    eq.scheduleAtFront(10, [&] { order.push_back(0); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, FrontEventsAreFifoWithinTheirClass)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.scheduleAtFront(7, [&order, i] { order.push_back(i); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, FrontEventsDoNotPerturbNormalOrder)
{
    // The front class must not disturb the relative order of normal
    // events -- existing goldens depend on schedule-order FIFO.
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(5, [&] { order.push_back(10); });
    eq.scheduleAtFront(5, [&] { order.push_back(0); });
    eq.scheduleAt(5, [&] { order.push_back(11); });
    eq.scheduleAtFront(5, [&] { order.push_back(1); });
    eq.scheduleAt(5, [&] { order.push_back(12); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 10, 11, 12}));
}

TEST(EventQueue, FrontEventsOrderedAcrossTicks)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAtFront(20, [&] { order.push_back(2); });
    eq.scheduleAt(10, [&] { order.push_back(1); });
    eq.scheduleAtFront(5, [&] { order.push_back(0); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(eq.now(), 20u);
}

TEST(EventQueue, FrontEventCanScheduleMoreFrontEvents)
{
    // The snapshot/stream chains re-arm themselves from inside their
    // own front event.
    EventQueue eq;
    std::vector<Tick> fired;
    std::function<void()> chain = [&] {
        fired.push_back(eq.now());
        if (eq.pending() > 0)
            eq.scheduleAtFront(eq.now() + 10, chain);
    };
    eq.scheduleAt(35, [] {});
    eq.scheduleAtFront(10, chain);
    eq.run();
    EXPECT_EQ(fired, (std::vector<Tick>{10, 20, 30, 40}));
}

TEST(EventQueue, ManyEventsStressOrdering)
{
    EventQueue eq;
    Tick last = 0;
    bool monotone = true;
    for (int i = 0; i < 10000; ++i) {
        const Tick when = static_cast<Tick>((i * 7919) % 1000);
        eq.scheduleAt(when, [&, when] {
            if (when < last)
                monotone = false;
            last = when;
        });
    }
    eq.run();
    EXPECT_TRUE(monotone);
}

TEST(EventQueue, ZeroDelayFromACallbackRunsAfterQueuedSameTickEvents)
{
    // A disk-side host action that schedules follow-up work at now()
    // queues behind the tick's already-scheduled events: same-tick
    // work runs in event-queue order.
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(10, [&] {
        order.push_back(0);
        eq.scheduleAfter(0, [&] { order.push_back(2); });
    });
    eq.scheduleAt(10, [&] { order.push_back(1); });
    eq.scheduleAt(11, [&] { order.push_back(3); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(eq.fired(), 4u);
}

TEST(EventQueue, FrontEventAtNowFromACallbackRunsNext)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(5, [&] {
        order.push_back(0);
        eq.scheduleAtFront(eq.now(), [&] { order.push_back(1); });
    });
    eq.scheduleAt(5, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(eq.now(), 5u);
}

TEST(EventQueue, RunUntilFiresWorkScheduledAtTheBoundary)
{
    EventQueue eq;
    std::vector<Tick> fired;
    eq.scheduleAt(20, [&] {
        fired.push_back(eq.now());
        eq.scheduleAfter(0, [&] { fired.push_back(eq.now()); });
        eq.scheduleAfter(1, [&] { fired.push_back(eq.now()); });
    });
    EXPECT_EQ(eq.runUntil(20), 2u);
    EXPECT_EQ(fired, (std::vector<Tick>{20, 20}));
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_EQ(eq.runUntil(21), 1u);
    EXPECT_EQ(fired, (std::vector<Tick>{20, 20, 21}));
}

TEST(EventQueue, PendingCountsBothClasses)
{
    EventQueue eq;
    int front_fired = 0;
    eq.scheduleAt(3, [] {});
    const auto f = eq.scheduleAtFront(3, [&] { ++front_fired; });
    eq.scheduleAtFront(3, [&] { ++front_fired; });
    EXPECT_EQ(eq.pending(), 3u);
    EXPECT_TRUE(eq.cancel(f));
    EXPECT_EQ(eq.pending(), 2u);
    EXPECT_TRUE(eq.step());   // the surviving front event
    EXPECT_EQ(front_fired, 1);
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_TRUE(eq.step());
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(eq.step());
    EXPECT_EQ(eq.fired(), 2u);
}

} // namespace
} // namespace dtsim
