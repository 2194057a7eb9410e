// Scheduler statistics counters, and the reuse of scheduler OS threads
// ("carriers") that SchedulerStats::threads_spawned counts.
#include <gtest/gtest.h>

#include <thread>

#include "sched_harness.hpp"

namespace adets::testing {
namespace {

using sched::SchedulerKind;

class StatsTest : public ::testing::Test,
                  public ::testing::WithParamInterface<SchedulerKind> {
 protected:
  void SetUp() override {
    saved_scale_ = common::Clock::scale();
    common::Clock::set_scale(0.05);
  }
  void TearDown() override { common::Clock::set_scale(saved_scale_); }
  double saved_scale_ = 1.0;
};

INSTANTIATE_TEST_SUITE_P(Kinds, StatsTest,
                         ::testing::Values(SchedulerKind::kSat, SchedulerKind::kMat,
                                           SchedulerKind::kLsa, SchedulerKind::kPds),
                         [](const auto& info) { return sched::to_string(info.param); });

TEST_P(StatsTest, CountersReflectWorkload) {
  sched::SchedulerConfig config;
  config.pds_thread_pool = 3;
  SchedulerCluster cluster(GetParam(), 1, config);
  std::vector<std::unique_ptr<std::atomic<bool>>> flag;
  flag.push_back(std::make_unique<std::atomic<bool>>(false));

  cluster.set_body(0, [&](BodyCtx& ctx) {
    ctx.lock(1);
    while (!flag[0]->load()) ctx.wait(1, 2);
    ctx.unlock(1);
  });
  cluster.set_body(1, [&](BodyCtx& ctx) {
    ctx.lock(1);
    flag[0]->store(true);
    ctx.notify_one(1, 2);
    ctx.unlock(1);
  });
  cluster.submit(0);
  common::Clock::sleep_real(std::chrono::milliseconds(20));
  cluster.submit(1);
  ASSERT_TRUE(cluster.wait_completed(2));

  const auto stats = cluster.replica(0).stats();
  EXPECT_GE(stats.lock_grants, 2u);   // both bodies took mutex 1
  EXPECT_EQ(stats.waits, 1u);
  EXPECT_EQ(stats.notifies, 1u);
  EXPECT_GE(stats.threads_spawned, 2u);
  EXPECT_EQ(stats.timeouts_fired, 0u);  // unbounded wait, no timer
  if (GetParam() == SchedulerKind::kLsa) {
    EXPECT_GT(stats.broadcasts, 0u);  // mutex tables
  }
  if (GetParam() == SchedulerKind::kPds) {
    EXPECT_GT(stats.rounds, 0u);
  }
  if (GetParam() == SchedulerKind::kSat || GetParam() == SchedulerKind::kMat) {
    EXPECT_GT(stats.activations, 0u);
  }
}

TEST_P(StatsTest, TimedOutWaitIncrementsTimeoutCounter) {
  sched::SchedulerConfig config;
  config.pds_thread_pool = 2;
  SchedulerCluster cluster(GetParam(), 1, config);
  cluster.set_body(0, [](BodyCtx& ctx) {
    ctx.lock(1);
    ctx.wait_for(1, 2, common::paper_ms(40));
    ctx.unlock(1);
  });
  cluster.submit(0);
  ASSERT_TRUE(cluster.wait_completed(1));
  common::Clock::sleep_real(std::chrono::milliseconds(50));
  const auto stats = cluster.replica(0).stats();
  EXPECT_EQ(stats.waits, 1u);
  EXPECT_EQ(stats.timeouts_fired, 1u);
}

// --- carrier reuse --------------------------------------------------------------
//
// Every strategy but PDS (which runs its own worker pool) spawns one
// logical thread per request.  Those logical threads run on reusable OS
// threads: the tests below check that reuse bounds the OS threads a
// replica starts and leaves ThreadIds, grants and teardown as before.

class CarrierTest : public StatsTest {};

INSTANTIATE_TEST_SUITE_P(Kinds, CarrierTest,
                         ::testing::Values(SchedulerKind::kSeq, SchedulerKind::kSl,
                                           SchedulerKind::kSat, SchedulerKind::kMat,
                                           SchedulerKind::kLsa),
                         [](const auto& info) { return sched::to_string(info.param); });

TEST_P(CarrierTest, SequentialRequestsReuseOsThreads) {
  constexpr std::uint64_t kRequests = 200;
  // One carrier runs a request while the previous one may still be on
  // its way to parking; anything near kRequests means no reuse.
  constexpr std::uint64_t kMaxOsThreads = 8;
  SchedulerCluster cluster(GetParam(), 3);
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    cluster.set_body(i, [](BodyCtx& ctx) {
      ctx.lock(1);
      ctx.unlock(1);
    });
  }
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    cluster.submit(i);
    ASSERT_TRUE(cluster.wait_completed(i + 1)) << "request " << i;
  }

  const auto trace = cluster.replica(0).grant_trace();
  ASSERT_EQ(trace.size(), kRequests);
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    EXPECT_EQ(trace[i], (sched::GrantRecord{common::MutexId(1), common::ThreadId(i)}))
        << "grant " << i;
  }
  for (int r = 0; r < cluster.size(); ++r) {
    EXPECT_EQ(cluster.replica(r).grant_trace(), trace) << "replica " << r;
    EXPECT_LE(cluster.replica(r).stats().threads_spawned, kMaxOsThreads)
        << "replica " << r;
  }
}

TEST_P(CarrierTest, RecycledCarrierStartsClean) {
  // Both requests belong to one logical thread, as successive calls of
  // one client do.  The second must run under its own record (its grant
  // carries its own ThreadId) and must not inherit the first one's
  // re-entrancy state (its lock reaches the strategy and is granted anew).
  constexpr std::uint64_t kLogical = 7;
  constexpr int kAttempts = 10;
  SchedulerCluster cluster(GetParam(), 1);
  std::vector<std::thread::id> os_thread(2 * kAttempts);
  bool recycled = false;
  for (int attempt = 0; attempt < kAttempts && !recycled; ++attempt) {
    const std::uint64_t a = 2 * attempt;
    const std::uint64_t b = a + 1;
    cluster.set_body(a, [&os_thread, a](BodyCtx& ctx) {
      ctx.lock(1);
      ctx.lock(1);
      ctx.unlock(1);
      ctx.unlock(1);
      os_thread[a] = std::this_thread::get_id();
    });
    cluster.set_body(b, [&os_thread, b](BodyCtx& ctx) {
      ctx.lock(1);
      ctx.unlock(1);
      os_thread[b] = std::this_thread::get_id();
    });
    cluster.submit(a, kLogical);
    ASSERT_TRUE(cluster.wait_completed(a + 1));
    // Give a's carrier time to park, so b is handed to it.
    common::Clock::sleep_real(std::chrono::milliseconds(20));
    const std::uint64_t spawned = cluster.replica(0).stats().threads_spawned;
    cluster.submit(b, kLogical);
    ASSERT_TRUE(cluster.wait_completed(b + 1));

    const auto trace = cluster.replica(0).grant_trace();
    ASSERT_EQ(trace.size(), b + 1);
    EXPECT_EQ(trace[a], (sched::GrantRecord{common::MutexId(1), common::ThreadId(a)}));
    EXPECT_EQ(trace[b], (sched::GrantRecord{common::MutexId(1), common::ThreadId(b)}));
    recycled = os_thread[a] == os_thread[b] &&
               cluster.replica(0).stats().threads_spawned == spawned;
  }
  EXPECT_TRUE(recycled) << "no request ran on the carrier its predecessor left";
}

TEST_P(CarrierTest, StopJoinsParkedAndRunningCarriers) {
  // Each cluster is destroyed with parked carriers (requests 0 and 1
  // finished) and, usually, a running one (request 2 still computing).
  // The destructor must return; ASan's leak check and TSan watch the
  // carriers and records it tears down.
  for (int round = 0; round < 10; ++round) {
    SchedulerCluster cluster(GetParam(), 3);
    for (std::uint64_t i = 0; i < 2; ++i) {
      cluster.set_body(i, [](BodyCtx& ctx) {
        ctx.lock(1);
        ctx.compute(std::chrono::milliseconds(1));
        ctx.unlock(1);
      });
    }
    cluster.set_body(2, [](BodyCtx& ctx) { ctx.compute(std::chrono::milliseconds(20)); });
    cluster.submit(0);
    cluster.submit(1);
    ASSERT_TRUE(cluster.wait_completed(2));
    cluster.submit(2);
  }
}

}  // namespace
}  // namespace adets::testing
