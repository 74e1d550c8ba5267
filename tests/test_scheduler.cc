/** @file Tests for the media request schedulers. */

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "controller/scheduler.hh"
#include "sim/rng.hh"

namespace dtsim {
namespace {

MediaJob*
job(std::uint32_t cylinder, std::uint64_t seq = 0)
{
    // Schedulers order jobs they do not own; these live as long as
    // the test program.
    static std::deque<MediaJob> store;
    MediaJob& j = store.emplace_back();
    j.cylinder = cylinder;
    j.seq = seq;
    return &j;
}

std::vector<std::uint32_t>
drain(Scheduler& s, std::uint32_t start_cyl)
{
    std::vector<std::uint32_t> order;
    std::uint32_t cur = start_cyl;
    while (auto j = s.pop(cur)) {
        order.push_back(j->cylinder);
        cur = j->cylinder;
    }
    return order;
}

TEST(FcfsScheduler, PreservesArrivalOrder)
{
    FcfsScheduler s;
    s.push(job(50, 0));
    s.push(job(10, 1));
    s.push(job(90, 2));
    EXPECT_EQ(drain(s, 0),
              (std::vector<std::uint32_t>{50, 10, 90}));
}

TEST(LookScheduler, SweepsUpThenDown)
{
    SweepScheduler s(SweepScheduler::Kind::LOOK);
    for (std::uint32_t c : {80, 20, 60, 40, 10})
        s.push(job(c));
    // From cylinder 30 going up: 40, 60, 80; then down: 20, 10.
    EXPECT_EQ(drain(s, 30),
              (std::vector<std::uint32_t>{40, 60, 80, 20, 10}));
}

TEST(LookScheduler, ServesCurrentCylinderFirst)
{
    SweepScheduler s(SweepScheduler::Kind::LOOK);
    s.push(job(30));
    s.push(job(50));
    EXPECT_EQ(drain(s, 30),
              (std::vector<std::uint32_t>{30, 50}));
}

TEST(ClookScheduler, WrapsToLowest)
{
    SweepScheduler s(SweepScheduler::Kind::CLOOK);
    for (std::uint32_t c : {80, 20, 60, 10})
        s.push(job(c));
    // From 50 going up: 60, 80; wrap: 10, 20.
    EXPECT_EQ(drain(s, 50),
              (std::vector<std::uint32_t>{60, 80, 10, 20}));
}

TEST(SstfScheduler, PicksNearest)
{
    SweepScheduler s(SweepScheduler::Kind::SSTF);
    for (std::uint32_t c : {100, 45, 55, 10})
        s.push(job(c));
    // From 50: 45 (d=5 vs 5, ties break down); from 45: 55 (d=10 vs
    // 35); from 55: 10 and 100 tie at d=45, break down: 10; then
    // 100.
    EXPECT_EQ(drain(s, 50),
              (std::vector<std::uint32_t>{45, 55, 10, 100}));
}

TEST(SstfScheduler, ExactMatchWins)
{
    SweepScheduler s(SweepScheduler::Kind::SSTF);
    s.push(job(70));
    s.push(job(71));
    EXPECT_EQ(drain(s, 71),
              (std::vector<std::uint32_t>{71, 70}));
}

TEST(Scheduler, SizeTracking)
{
    SweepScheduler s(SweepScheduler::Kind::LOOK);
    EXPECT_TRUE(s.empty());
    s.push(job(1));
    s.push(job(2));
    EXPECT_EQ(s.size(), 2u);
    s.pop(0);
    EXPECT_EQ(s.size(), 1u);
    s.pop(0);
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.pop(0), nullptr);
}

TEST(Scheduler, DuplicateCylindersAllServed)
{
    SweepScheduler s(SweepScheduler::Kind::LOOK);
    for (int i = 0; i < 5; ++i)
        s.push(job(42, static_cast<std::uint64_t>(i)));
    EXPECT_EQ(drain(s, 0).size(), 5u);
}

TEST(Scheduler, FactoryProducesAllKinds)
{
    for (SchedulerKind k :
         {SchedulerKind::FCFS, SchedulerKind::LOOK,
          SchedulerKind::CLOOK, SchedulerKind::SSTF}) {
        auto s = makeScheduler(k);
        ASSERT_NE(s, nullptr);
        s->push(job(5));
        EXPECT_EQ(s->size(), 1u);
        EXPECT_STREQ(s->name(), schedulerKindName(k));
    }
}

/**
 * Property: every scheduler serves every job exactly once, and LOOK's
 * total head travel never exceeds FCFS's on the same input.
 */
class SchedulerSweep
    : public ::testing::TestWithParam<SchedulerKind>
{
};

TEST_P(SchedulerSweep, ServesAllExactlyOnce)
{
    auto s = makeScheduler(GetParam());
    Rng rng(31);
    const int n = 500;
    std::vector<std::uint32_t> cyls;
    for (int i = 0; i < n; ++i) {
        const auto c = static_cast<std::uint32_t>(rng.below(10000));
        cyls.push_back(c);
        s->push(job(c, static_cast<std::uint64_t>(i)));
    }
    auto order = drain(*s, 5000);
    ASSERT_EQ(order.size(), cyls.size());
    std::sort(order.begin(), order.end());
    std::sort(cyls.begin(), cyls.end());
    EXPECT_EQ(order, cyls);
}

INSTANTIATE_TEST_SUITE_P(Kinds, SchedulerSweep,
                         ::testing::Values(SchedulerKind::FCFS,
                                           SchedulerKind::LOOK,
                                           SchedulerKind::CLOOK,
                                           SchedulerKind::SSTF));

TEST(Scheduler, LookTravelsLessThanFcfs)
{
    Rng rng(37);
    std::vector<std::uint32_t> cyls;
    for (int i = 0; i < 1000; ++i)
        cyls.push_back(static_cast<std::uint32_t>(rng.below(10000)));

    auto travel = [&](SchedulerKind k) {
        auto s = makeScheduler(k);
        for (std::size_t i = 0; i < cyls.size(); ++i)
            s->push(job(cyls[i], i));
        std::uint64_t total = 0;
        std::uint32_t cur = 5000;
        while (auto j = s->pop(cur)) {
            total += j->cylinder > cur ? j->cylinder - cur
                                       : cur - j->cylinder;
            cur = j->cylinder;
        }
        return total;
    };

    EXPECT_LT(travel(SchedulerKind::LOOK),
              travel(SchedulerKind::FCFS) / 10);
}

} // namespace
} // namespace dtsim
