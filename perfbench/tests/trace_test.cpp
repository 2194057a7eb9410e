// Tests of the tracing decorators: they forward every virtual of the
// interfaces they wrap, return exactly what the wrapped object returns,
// only write timestamps, and leave traced runs convergent with
// identical scheduling decisions on every replica.
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "driver.hpp"
#include "env.hpp"
#include "replication/audit.hpp"
#include "replication/consistency.hpp"
#include "runtime/context.hpp"
#include "trace.hpp"

namespace {

using adets::common::Bytes;
using adets::common::CondVarId;
using adets::common::Duration;
using adets::common::GroupId;
using adets::common::LogicalThreadId;
using adets::common::MutexId;
using adets::common::NodeId;
using adets::common::RequestId;
using adets::common::ThreadId;
namespace sched = adets::sched;
namespace runtime = adets::runtime;
using perfbench::Span;
using perfbench::SpanTable;
using perfbench::TracingObject;
using perfbench::TracingScheduler;

/// Names of the virtual member functions (destructor excluded) declared
/// in `class <name>` of an interface header.
std::set<std::string> virtuals_of(const std::string& header, const std::string& name) {
  std::ifstream in(std::string(ADETS_SRC_DIR) + "/" + header);
  std::stringstream text;
  std::string line;
  while (std::getline(in, line)) text << line.substr(0, line.find("//")) << "\n";
  const std::string source = text.str();
  const auto begin = source.find("class " + name + " {");
  EXPECT_NE(begin, std::string::npos) << name << " not found in " << header;
  if (begin == std::string::npos) return {};
  const auto end = source.find("\n};", begin);
  const std::string body = source.substr(begin, end - begin);
  std::set<std::string> names;
  const std::regex decl(R"(virtual\s+([^;{(]*?)(~?\w+)\s*\()");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), decl);
       it != std::sregex_iterator(); ++it) {
    const std::string fn = (*it)[2];
    if (fn.front() != '~') names.insert(fn);
  }
  return names;
}

/// Records the name of every call; returns values a test can recognise.
class RecordingEnv final : public sched::SchedulerEnv {
 public:
  void execute(const sched::Request&) override { calls.insert("execute"); }
  void broadcast(const Bytes&) override { calls.insert("broadcast"); }
  [[nodiscard]] NodeId self() const override {
    calls.insert("self");
    return NodeId(77);
  }
  [[nodiscard]] std::vector<NodeId> view_members() const override {
    calls.insert("view_members");
    return {NodeId(5), NodeId(6)};
  }
  mutable std::set<std::string> calls;
};

class RecordingScheduler final : public sched::Scheduler {
 public:
  explicit RecordingScheduler(std::set<std::string>& calls) : calls_(calls) {}

  [[nodiscard]] sched::SchedulerKind kind() const override {
    calls_.insert("kind");
    return sched::SchedulerKind::kMat;
  }
  [[nodiscard]] sched::SchedulerCapabilities capabilities() const override {
    calls_.insert("capabilities");
    sched::SchedulerCapabilities caps;
    caps.coordination = "recorded";
    return caps;
  }
  void start(sched::SchedulerEnv& env) override {
    calls_.insert("start");
    env_ = &env;
  }
  void stop() override { calls_.insert("stop"); }
  void on_request(sched::Request request) override {
    calls_.insert("on_request");
    last_request = request.id;
  }
  void on_reply(RequestId) override { calls_.insert("on_reply"); }
  void on_scheduler_message(NodeId, const Bytes&) override {
    calls_.insert("on_scheduler_message");
  }
  void on_view_change(const std::vector<NodeId>&) override { calls_.insert("on_view_change"); }
  void lock(MutexId) override {
    calls_.insert("lock");
    adets::common::Clock::sleep_real(std::chrono::milliseconds(2));
  }
  void unlock(MutexId) override { calls_.insert("unlock"); }
  sched::WaitResult wait(MutexId, CondVarId, Duration) override {
    calls_.insert("wait");
    return sched::WaitResult{false};
  }
  void notify_one(MutexId, CondVarId) override { calls_.insert("notify_one"); }
  void notify_all(MutexId, CondVarId) override { calls_.insert("notify_all"); }
  void yield() override { calls_.insert("yield"); }
  void before_nested_call(RequestId) override { calls_.insert("before_nested_call"); }
  void after_nested_call(RequestId) override { calls_.insert("after_nested_call"); }
  void set_trace(bool) override { calls_.insert("set_trace"); }
  [[nodiscard]] std::vector<sched::GrantRecord> grant_trace() const override {
    calls_.insert("grant_trace");
    return {sched::GrantRecord{MutexId(3), ThreadId(4)}};
  }
  [[nodiscard]] std::vector<sched::Decision> decision_trace() const override {
    calls_.insert("decision_trace");
    sched::Decision d;
    d.seq = 42;
    return {d};
  }
  [[nodiscard]] std::uint64_t completed_requests() const override {
    calls_.insert("completed_requests");
    return 1234;
  }
  [[nodiscard]] sched::SchedulerStats stats() const override {
    calls_.insert("stats");
    sched::SchedulerStats s;
    s.rounds = 99;
    return s;
  }

  sched::SchedulerEnv* env_ = nullptr;
  RequestId last_request;

 private:
  std::set<std::string>& calls_;
};

class RecordingObject final : public runtime::ReplicatedObject {
 public:
  explicit RecordingObject(std::set<std::string>& calls) : calls_(calls) {}
  Bytes dispatch(const std::string& method, const Bytes& args,
                 runtime::SyncContext& ctx) override {
    calls_.insert("dispatch");
    if (method == "locking") ctx.lock(MutexId(1));
    Bytes result = args;
    result.push_back(0xAB);
    return result;
  }
  [[nodiscard]] std::uint64_t state_hash() const override {
    calls_.insert("state_hash");
    return 0xfeedULL;
  }

 private:
  std::set<std::string>& calls_;
};

/// Routes SyncContext downcalls to a given scheduler.
class StubHost final : public runtime::InvocationHost {
 public:
  explicit StubHost(sched::Scheduler& scheduler) : scheduler_(scheduler) {}
  sched::Scheduler& context_scheduler() override { return scheduler_; }
  Bytes nested_invoke(runtime::SyncContext&, GroupId, const std::string&,
                      const Bytes&) override {
    return {};
  }
  void nested_invoke_oneway(runtime::SyncContext&, GroupId, const std::string&,
                            const Bytes&) override {}

 private:
  sched::Scheduler& scheduler_;
};

sched::Request application_request(std::uint64_t id) {
  sched::Request request;
  request.id = RequestId(id);
  request.logical = LogicalThreadId(id);
  return request;
}

TEST(TracingDecorators, SchedulerForwardsEveryVirtualAndItsResults) {
  std::set<std::string> calls;
  SpanTable spans;
  auto owned = std::make_unique<RecordingScheduler>(calls);
  RecordingScheduler& inner = *owned;
  TracingScheduler traced(std::move(owned), spans, 1);
  RecordingEnv env;

  EXPECT_EQ(traced.kind(), sched::SchedulerKind::kMat);
  EXPECT_EQ(traced.capabilities().coordination, "recorded");
  traced.start(env);
  traced.on_request(application_request(10));
  EXPECT_EQ(inner.last_request, RequestId(10));
  traced.on_reply(RequestId(11));
  traced.on_scheduler_message(NodeId(1), Bytes{1, 2});
  traced.on_view_change({NodeId(1)});
  traced.lock(MutexId(1));
  traced.unlock(MutexId(1));
  EXPECT_FALSE(traced.wait(MutexId(1), CondVarId(2), Duration::zero()).notified);
  traced.notify_one(MutexId(1), CondVarId(2));
  traced.notify_all(MutexId(1), CondVarId(2));
  traced.yield();
  traced.before_nested_call(RequestId(12));
  traced.after_nested_call(RequestId(12));
  traced.set_trace(true);
  EXPECT_EQ(traced.grant_trace(), (std::vector<sched::GrantRecord>{{MutexId(3), ThreadId(4)}}));
  ASSERT_EQ(traced.decision_trace().size(), 1U);
  EXPECT_EQ(traced.decision_trace()[0].seq, 42U);
  EXPECT_EQ(traced.completed_requests(), 1234U);
  EXPECT_EQ(traced.stats().rounds, 99U);
  traced.stop();
  EXPECT_EQ(calls, virtuals_of("sched/api.hpp", "Scheduler"));

  // The environment the strategy sees is a forwarding wrapper.
  ASSERT_NE(inner.env_, nullptr);
  EXPECT_NE(inner.env_, &env);
  inner.env_->execute(application_request(13));
  inner.env_->broadcast(Bytes{9});
  EXPECT_EQ(inner.env_->self(), NodeId(77));
  EXPECT_EQ(inner.env_->view_members(), (std::vector<NodeId>{NodeId(5), NodeId(6)}));
  EXPECT_EQ(env.calls, virtuals_of("sched/api.hpp", "SchedulerEnv"));
}

TEST(TracingDecorators, ObjectForwardsEveryVirtualAndItsResults) {
  std::set<std::string> calls;
  std::set<std::string> scheduler_calls;
  SpanTable spans;
  TracingObject traced(std::make_unique<RecordingObject>(calls), spans, 0);
  RecordingScheduler scheduler(scheduler_calls);
  StubHost host(scheduler);
  runtime::SyncContext ctx(host, RequestId(7), LogicalThreadId(7));
  EXPECT_EQ(traced.dispatch("plain", Bytes{1, 2}, ctx), (Bytes{1, 2, 0xAB}));
  EXPECT_EQ(traced.state_hash(), 0xfeedULL);
  EXPECT_EQ(calls, virtuals_of("runtime/object.hpp", "ReplicatedObject"));
}

TEST(TracingDecorators, StampsOnlyApplicationRequestsOfTheirReplica) {
  std::set<std::string> calls;
  SpanTable spans;
  auto owned = std::make_unique<RecordingScheduler>(calls);
  RecordingScheduler& inner = *owned;
  TracingScheduler scheduler(std::move(owned), spans, 2);
  TracingObject object(std::make_unique<RecordingObject>(calls), spans, 2);
  RecordingEnv env;
  scheduler.start(env);
  StubHost host(scheduler);

  scheduler.on_request(application_request(21));
  inner.env_->execute(application_request(21));
  runtime::SyncContext ctx(host, RequestId(21), LogicalThreadId(21));
  (void)object.dispatch("locking", Bytes{}, ctx);

  sched::Request noop = application_request(22);
  noop.kind = sched::RequestKind::kNoop;
  scheduler.on_request(noop);
  inner.env_->execute(noop);

  const Span* span = spans.find(RequestId(21));
  ASSERT_NE(span, nullptr);
  EXPECT_GT(span->deliver[2].load(), 0);
  EXPECT_GT(span->exec_begin[2].load(), 0);
  EXPECT_GE(span->exec_end[2].load(), span->exec_begin[2].load());
  EXPECT_GE(span->dispatch_end[2].load(), span->dispatch_begin[2].load());
  // The 2 ms lock downcall is charged to the dispatching request.
  EXPECT_GE(span->downcall_ns[2].load(), 2'000'000);
  for (int r : {0, 1}) {
    EXPECT_EQ(span->deliver[r].load(), 0);
    EXPECT_EQ(span->dispatch_end[r].load(), 0);
  }
  EXPECT_EQ(spans.find(RequestId(22)), nullptr);
  // A downcall outside any dispatch is forwarded and charged to nobody.
  scheduler.lock(MutexId(1));
  EXPECT_LT(span->downcall_ns[2].load(), 4'000'000);
}

void expect_traced_run_converges(const std::string& workload) {
  (void)perfbench::pin_environment();
  perfbench::RunOptions options;
  options.spec = perfbench::find_workload(workload);
  ASSERT_NE(options.spec, nullptr);
  options.seed = 3;
  options.seconds = 1.0;
  options.traced = true;
  options.keep_decisions = true;
  const perfbench::RunResult run = perfbench::run_workload(options);
  EXPECT_TRUE(run.drained);
  EXPECT_EQ(run.hashes_equal, std::optional<bool>(true));
  EXPECT_GT(run.attempted, 0U);
  EXPECT_EQ(run.failed, 0U);
  EXPECT_EQ(run.bad_replies, 0U);
  ASSERT_TRUE(run.layers.has_value());
  EXPECT_EQ(run.layers->spans, run.replied);
  EXPECT_GE(run.layers->coverage_p50, 0.9);
  // The determinism contract: every replica grants each application
  // mutex to the same threads in the same order (the interleaving
  // across mutexes may differ under true multithreading).
  ASSERT_EQ(run.grant_traces.size(), 3U);
  const auto grants = adets::repl::per_mutex_projection(run.grant_traces[0]);
  const auto decisions = adets::repl::per_mutex_decisions(run.decision_traces[0]);
  EXPECT_FALSE(grants.empty());
  EXPECT_FALSE(decisions.empty());
  for (std::size_t r = 1; r < run.grant_traces.size(); ++r) {
    EXPECT_EQ(adets::repl::per_mutex_projection(run.grant_traces[r]), grants) << "replica " << r;
    EXPECT_EQ(adets::repl::per_mutex_decisions(run.decision_traces[r]), decisions)
        << "replica " << r;
  }
}

TEST(TracedRun, KvSatConvergesWithIdenticalDecisions) {
  expect_traced_run_converges("kv_sat");
}

TEST(TracedRun, ComputePdsConvergesWithIdenticalDecisions) {
  expect_traced_run_converges("compute_pds");
}

TEST(TracedRun, PairedRunTracesOnlyItsTracedClusters) {
  (void)perfbench::pin_environment();
  perfbench::RunOptions options;
  options.spec = perfbench::find_workload("compute_pds");
  ASSERT_NE(options.spec, nullptr);
  options.seed = 4;
  options.seconds = 2.0;
  options.clusters = 2;
  const perfbench::TracedPair pair = perfbench::run_traced_pair(options);
  const perfbench::RunResult& untraced = pair.untraced;
  const perfbench::RunResult& traced = pair.traced;
  EXPECT_EQ(untraced.clusters.size(), 2U);
  EXPECT_EQ(traced.clusters.size(), 2U);
  EXPECT_GT(pair.overhead, 0.0);
  EXPECT_FALSE(untraced.layers.has_value());
  ASSERT_TRUE(traced.layers.has_value());
  // Only span separation is checked here; convergence of a traced
  // compute_pds run is ComputePdsConvergesWithIdenticalDecisions'.
  EXPECT_EQ(traced.layers->spans, traced.replied);
  // Self time leaves out lock wait but keeps the 100 paper-ms (5 ms
  // real) compute that every request sleeps.
  EXPECT_GE(traced.layers->workload_exec_ms_p50, 4.9);
  EXPECT_GE(traced.layers->coverage_p50, 0.9);
  EXPECT_LE(traced.layers->coverage_p50, 1.0);
}

}  // namespace
