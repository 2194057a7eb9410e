// Divergence-audit tests.
//
// The auditor's contract has two sides: every stock strategy must sail
// through fault-heavy runs without a divergence report, and a scheduler
// that actually breaks the determinism contract must be caught — with a
// decision-trace diff naming the first disagreeing lock grant, not just
// a pair of unequal hashes.  The negative control is RacyScheduler
// (tests/racy_scheduler.hpp), which grants locks in real-time order
// perturbed by a replica-local stagger.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/serialization.hpp"
#include "racy_scheduler.hpp"
#include "replication/audit.hpp"
#include "replication/statehash.hpp"
#include "runtime/cluster.hpp"
#include "runtime/context.hpp"
#include "runtime/object.hpp"
#include "workload/objects.hpp"
#include "workload/scenario.hpp"

namespace adets {
namespace {

using common::paper_ms;
using common::paper_us;

class DivergenceAuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_scale_ = common::Clock::scale();
    common::Clock::set_scale(0.01);
  }
  void TearDown() override { common::Clock::set_scale(saved_scale_); }

 private:
  double saved_scale_ = 1.0;
};

/// Order-sensitive replicated object: the state hash mixes entries in
/// append order, so ANY cross-replica disagreement on the interleaving
/// of concurrent appends diverges the hashes (a last-writer-wins map
/// could mask all but the final race).
class AppendLog : public runtime::ReplicatedObject {
 public:
  common::Bytes dispatch(const std::string& method, const common::Bytes& args,
                         runtime::SyncContext& ctx) override {
    if (method != "append") throw std::invalid_argument("unknown method: " + method);
    common::Reader r(args);
    const std::string entry = r.str();
    runtime::DetLock lock(ctx, common::MutexId(0));
    log_.push_back(entry);
    return {};
  }
  [[nodiscard]] std::uint64_t state_hash() const override {
    return repl::StateHash{}.mix_range(log_).digest();
  }

 private:
  std::vector<std::string> log_;
};

common::Bytes pack_entry(const std::string& entry) {
  common::Writer w;
  w.str(entry);
  return w.take();
}

/// Two client threads racing appends into one group.
void race_appends(runtime::Cluster& cluster, common::GroupId group,
                  int appends_per_client) {
  runtime::Client* clients[2] = {&cluster.create_client(), &cluster.create_client()};
  std::vector<std::thread> threads;
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < appends_per_client; ++i) {
        clients[c]->invoke(group, "append",
                           pack_entry("c" + std::to_string(c) + "-" +
                                      std::to_string(i)));
      }
    });
  }
  for (auto& t : threads) t.join();
}

// --- positive side: stock strategies never trip the auditor ---------------

TEST_F(DivergenceAuditTest, StockSchedulersConvergeUnderFaultPlans) {
  for (const auto kind : workload::all_scheduler_kinds()) {
    for (const std::uint64_t seed : {3ULL, 11ULL}) {
      SCOPED_TRACE(to_string(kind) + " seed=" + std::to_string(seed));
      workload::ScenarioConfig config;
      config.requests_per_client = 10;
      config.workload_seed = seed;
      config.faults = transport::FaultPlan{}
                          .with_seed(seed)
                          .duplicate(0.2)
                          .delay(paper_us(100), paper_ms(2))
                          .reorder(0.1, 3);
      const auto result = run_scenario(kind, config);
      ASSERT_TRUE(result.drained);
      EXPECT_TRUE(result.converged) << result.audit.diagnostic;
      EXPECT_FALSE(result.audit.diverged);
      EXPECT_TRUE(result.audit.diagnostic.empty());
    }
  }
}

TEST_F(DivergenceAuditTest, StockSchedulerPassesTheRacyWorkload) {
  runtime::Cluster cluster;
  const auto group = cluster.create_group(3, sched::SchedulerKind::kSat,
                                          [] { return std::make_unique<AppendLog>(); });
  race_appends(cluster, group, 20);
  ASSERT_TRUE(cluster.wait_drained(group, 40, std::chrono::seconds(60)));
  const auto report = repl::audit_group(cluster, group);
  EXPECT_FALSE(report.diverged) << report.diagnostic;
}

TEST_F(DivergenceAuditTest, BackgroundAuditorStaysQuietOnCleanRun) {
  workload::ScenarioConfig config;
  config.faults = transport::FaultPlan{}.with_seed(4).duplicate(0.1);
  config.audit_period = std::chrono::milliseconds(2);
  const auto result = run_scenario(sched::SchedulerKind::kPds, config);
  ASSERT_TRUE(result.drained);
  EXPECT_TRUE(result.converged) << result.audit.diagnostic;
  EXPECT_GT(result.background_audits, 0u);
  EXPECT_FALSE(result.background_divergence);
}

TEST_F(DivergenceAuditTest, ComputePatternsConvergesUnderParallelMutexes) {
  // PDS runs handlers that hold different logical mutexes in parallel, so
  // an object whose per-mutex state shares one growable container races
  // on the container itself: replicas can diverge, and ThreadSanitizer
  // reports the race even on runs whose hashes happen to agree.
  constexpr int kClients = 16;
  constexpr int kRequestsPerClient = 12;
  runtime::Cluster cluster;
  sched::SchedulerConfig sched_config;
  sched_config.pds_thread_pool = 16;
  const auto group = cluster.create_group(
      3, sched::SchedulerKind::kPds,
      [] { return std::make_unique<workload::ComputePatterns>(10); }, sched_config);
  std::vector<runtime::Client*> clients;
  for (int c = 0; c < kClients; ++c) clients.push_back(&cluster.create_client());
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      static const char* const kPatterns[] = {"b", "c", "d"};
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const auto mutex = static_cast<std::uint64_t>(c * 7 + i) % 10;
        clients[c]->invoke(group, kPatterns[(c + i) % 3],
                           workload::pack_u64(std::uint64_t{1}, mutex));
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_TRUE(cluster.wait_drained(group, kClients * kRequestsPerClient,
                                   std::chrono::seconds(60)));
  const auto report = repl::audit_group(cluster, group);
  EXPECT_FALSE(report.diverged) << report.diagnostic;
}

// --- negative control: a broken scheduler must be flagged -----------------

TEST_F(DivergenceAuditTest, RacySchedulerIsCaughtWithDecisionTraceDiff) {
  runtime::Cluster cluster;
  const auto group = cluster.create_group(
      3, [] { return std::make_unique<testing::RacyScheduler>(); },
      [] { return std::make_unique<AppendLog>(); });
  repl::DivergenceAuditor auditor(cluster, group);

  race_appends(cluster, group, 20);
  ASSERT_TRUE(cluster.wait_drained(group, 40, std::chrono::seconds(60)));

  const auto report = auditor.check();
  ASSERT_TRUE(report.diverged)
      << "racy scheduler produced identical replicas by chance";
  EXPECT_TRUE(auditor.divergence_detected());
  EXPECT_TRUE(auditor.first_divergence().diverged);
  ASSERT_EQ(report.replicas.size(), 3u);

  // The diagnostic names the divergence and pinpoints where the lock
  // grant streams parted ways.
  EXPECT_NE(report.diagnostic.find("DIVERGENCE"), std::string::npos)
      << report.diagnostic;
  EXPECT_NE(report.diagnostic.find("decision-trace diff"), std::string::npos)
      << report.diagnostic;
  for (const auto& snapshot : report.replicas) {
    EXPECT_FALSE(snapshot.decisions.empty());
  }
}

// --- projection helper ----------------------------------------------------

TEST_F(DivergenceAuditTest, PerMutexProjectionKeepsOnlyApplicationGrants) {
  const auto grant = [](std::uint64_t seq, std::uint64_t mutex, std::uint64_t thread) {
    return sched::Decision{sched::Decision::Kind::kLockGrant, seq,
                           common::MutexId(mutex), common::CondVarId::invalid(),
                           common::ThreadId(thread), 0};
  };
  std::vector<sched::Decision> decisions;
  decisions.push_back(grant(0, 5, 1));
  decisions.push_back(grant(1, (1ULL << 61) + 3, 9));  // scheduler-internal
  decisions.push_back(sched::Decision{sched::Decision::Kind::kNotify, 2,
                                      common::MutexId(5), common::CondVarId(1),
                                      common::ThreadId(4), 0});
  decisions.push_back(grant(3, 5, 2));
  decisions.push_back(grant(4, 6, 7));

  const auto projection = repl::per_mutex_decisions(decisions);
  ASSERT_EQ(projection.size(), 2u);
  EXPECT_EQ(projection.at(5), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(projection.at(6), (std::vector<std::uint64_t>{7}));
}

}  // namespace
}  // namespace adets
