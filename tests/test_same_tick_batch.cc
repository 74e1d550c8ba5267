/**
 * @file
 * Tests for the end-of-tick batch of disk-produced host actions: the
 * batch runs after the tick's other work, in merge-rank order, FIFO
 * within a disk, once per tick.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/same_tick_batch.hh"

namespace dtsim {
namespace {

TEST(SameTickBatch, RunsAfterTheTicksOtherWork)
{
    EventQueue eq;
    SameTickBatch batch(eq);
    std::vector<int> order;
    // The first event of tick 10 emits; the tick's later events still
    // run before the batched action.
    eq.scheduleAt(10, [&] {
        order.push_back(0);
        batch.emit(0, [&] { order.push_back(100); });
    });
    eq.scheduleAt(10, [&] { order.push_back(1); });
    eq.scheduleAt(10, [&] { order.push_back(2); });
    eq.scheduleAt(11, [&] { order.push_back(3); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 100, 3}));
}

TEST(SameTickBatch, OrdersDisksByIndexByDefault)
{
    EventQueue eq;
    SameTickBatch batch(eq);
    std::vector<unsigned> order;
    eq.scheduleAt(5, [&] {
        for (unsigned d : {3u, 0u, 2u, 1u})
            batch.emit(d, [&order, d] { order.push_back(d); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<unsigned>{0, 1, 2, 3}));
}

TEST(SameTickBatch, KeepsEmissionOrderWithinADisk)
{
    EventQueue eq;
    SameTickBatch batch(eq);
    std::vector<int> order;
    eq.scheduleAt(5, [&] {
        batch.emit(1, [&] { order.push_back(10); });
        batch.emit(0, [&] { order.push_back(0); });
        batch.emit(1, [&] { order.push_back(11); });
        batch.emit(0, [&] { order.push_back(1); });
        batch.emit(1, [&] { order.push_back(12); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 10, 11, 12}));
}

TEST(SameTickBatch, InstalledMergeRanksOverrideDiskIndex)
{
    // Mirrored layout: logical disk i has primary i and replica i + 2,
    // ranked (logical, replica), so a replica pair goes primary first.
    EventQueue eq;
    SameTickBatch batch(eq);
    batch.setMergeRanks({0, 2, 1, 3});
    std::vector<unsigned> order;
    eq.scheduleAt(5, [&] {
        for (unsigned d : {3u, 2u, 1u, 0u})
            batch.emit(d, [&order, d] { order.push_back(d); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<unsigned>{0, 2, 1, 3}));
}

TEST(SameTickBatch, EmissionsFromSeparateEventsShareOneFlush)
{
    // Emissions spread over a tick's events land in a single batch
    // ordered by rank, not in event order.
    EventQueue eq;
    SameTickBatch batch(eq);
    std::vector<unsigned> order;
    for (unsigned d : {2u, 1u, 0u})
        eq.scheduleAt(7, [&batch, &order, d] {
            batch.emit(d, [&order, d] { order.push_back(d); });
        });
    eq.run();
    EXPECT_EQ(order, (std::vector<unsigned>{0, 1, 2}));
    // Three emitting events plus one flusher.
    EXPECT_EQ(eq.fired(), 4u);
}

TEST(SameTickBatch, EachTickFlushesItsOwnEmissions)
{
    EventQueue eq;
    SameTickBatch batch(eq);
    std::vector<std::pair<Tick, unsigned>> ran;
    const auto emitAt = [&](Tick t, unsigned d) {
        eq.scheduleAt(t, [&, d] {
            batch.emit(d, [&, d] { ran.emplace_back(eq.now(), d); });
        });
    };
    emitAt(20, 0);
    emitAt(10, 1);
    emitAt(20, 1);
    emitAt(10, 0);
    eq.run();
    const std::vector<std::pair<Tick, unsigned>> want = {
        {10, 0}, {10, 1}, {20, 0}, {20, 1}};
    EXPECT_EQ(ran, want);
}

TEST(SameTickBatch, EmissionFromAFlushedActionRunsInALaterBatch)
{
    // An action that emits again while the batch drains does not join
    // the batch being run; it gets a flush of its own, after it.
    EventQueue eq;
    SameTickBatch batch(eq);
    std::vector<int> order;
    eq.scheduleAt(3, [&] {
        batch.emit(1, [&] {
            order.push_back(1);
            batch.emit(0, [&] { order.push_back(2); });
        });
        batch.emit(2, [&] { order.push_back(3); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
    EXPECT_EQ(eq.now(), 3u);
}

TEST(SameTickBatch, NothingRunsUntilTheQueueReachesTheFlush)
{
    EventQueue eq;
    SameTickBatch batch(eq);
    int runs = 0;
    batch.emit(0, [&] { ++runs; });
    batch.emit(1, [&] { ++runs; });
    EXPECT_EQ(runs, 0);
    // One flusher covers both emissions.
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(runs, 2);
    EXPECT_EQ(eq.pending(), 0u);
}

} // namespace
} // namespace dtsim
