// Request-lifecycle tracing from outside the middleware.
//
// A traced run builds its replica group through the public
// Cluster::create_group(replicas, SchedulerFactory, ObjectFactory)
// overload with two forwarding decorators:
//
//  - TracingScheduler wraps the strategy from sched::make_scheduler and
//    the SchedulerEnv handed to start().  It stamps delivery
//    (on_request), admission (SchedulerEnv::execute begins) and
//    completion (execute returns), and times the lock()/wait()
//    downcalls a request makes.
//  - TracingObject wraps the replicated object and stamps the span of
//    dispatch().
//
// Spans are keyed by the RequestId that Client::invoke_async returns,
// which is sched::Request::id on every replica.  The decorators only
// write timestamps into the SpanTable; every value they return comes
// unchanged from the wrapped scheduler, environment or object, so no
// scheduling decision can read a trace.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/clock.hpp"
#include "runtime/object.hpp"
#include "sched/api.hpp"

namespace perfbench {

/// Every workload runs a group of this many replicas.
inline constexpr int kReplicas = 3;

/// A trace timestamp: steady-clock nanoseconds (never 0 on a running
/// system, so 0 marks "not recorded").
inline std::int64_t stamp() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             adets::common::Clock::now().time_since_epoch())
      .count();
}

/// Lifecycle timestamps of one request (see stamp()).  Each field has
/// one writer thread.
/// The client side of a request is recorded by the driver (Ticket in
/// driver.cpp); a Span holds the replica side, per replica index.
struct Span {
  std::array<std::atomic<std::int64_t>, kReplicas> deliver{};         // on_request
  std::array<std::atomic<std::int64_t>, kReplicas> exec_begin{};      // env execute
  std::array<std::atomic<std::int64_t>, kReplicas> dispatch_begin{};  // object
  std::array<std::atomic<std::int64_t>, kReplicas> dispatch_end{};
  std::array<std::atomic<std::int64_t>, kReplicas> exec_end{};
  /// Time spent inside lock()/wait() downcalls during dispatch.
  std::array<std::atomic<std::int64_t>, kReplicas> downcall_ns{};
};

/// In-memory span store, striped so replica threads rarely contend.
class SpanTable {
 public:
  SpanTable() = default;
  SpanTable(const SpanTable&) = delete;
  SpanTable& operator=(const SpanTable&) = delete;

  /// The span of `id`, created on first use; the reference stays valid
  /// for the table's lifetime.
  Span& at(adets::common::RequestId id);
  /// The span of `id`, or nullptr if nothing recorded it.  Only call
  /// once every writer has stopped.
  [[nodiscard]] const Span* find(adets::common::RequestId id) const;

 private:
  static constexpr std::size_t kStripes = 64;
  struct Stripe {
    mutable std::mutex mutex;
    std::unordered_map<std::uint64_t, Span> spans;
  };
  std::array<Stripe, kStripes> stripes_;
};

/// Forwards every Scheduler virtual to `inner`, stamping the request
/// lifecycle of replica `replica` into `spans`.
class TracingScheduler final : public adets::sched::Scheduler {
 public:
  TracingScheduler(std::unique_ptr<adets::sched::Scheduler> inner, SpanTable& spans,
                   int replica);

  [[nodiscard]] adets::sched::SchedulerKind kind() const override;
  [[nodiscard]] adets::sched::SchedulerCapabilities capabilities() const override;
  void start(adets::sched::SchedulerEnv& env) override;
  void stop() override;

  void on_request(adets::sched::Request request) override;
  void on_reply(adets::common::RequestId nested_id) override;
  void on_scheduler_message(adets::common::NodeId sender,
                            const adets::common::Bytes& payload) override;
  void on_view_change(const std::vector<adets::common::NodeId>& members) override;

  void lock(adets::common::MutexId mutex) override;
  void unlock(adets::common::MutexId mutex) override;
  adets::sched::WaitResult wait(adets::common::MutexId mutex,
                                adets::common::CondVarId condvar,
                                adets::common::Duration timeout) override;
  void notify_one(adets::common::MutexId mutex, adets::common::CondVarId condvar) override;
  void notify_all(adets::common::MutexId mutex, adets::common::CondVarId condvar) override;
  void yield() override;
  void before_nested_call(adets::common::RequestId nested_id) override;
  void after_nested_call(adets::common::RequestId nested_id) override;

  void set_trace(bool enabled) override;
  [[nodiscard]] std::vector<adets::sched::GrantRecord> grant_trace() const override;
  [[nodiscard]] std::vector<adets::sched::Decision> decision_trace() const override;
  [[nodiscard]] std::uint64_t completed_requests() const override;
  [[nodiscard]] adets::sched::SchedulerStats stats() const override;

 private:
  /// Forwards every SchedulerEnv virtual to the replica's environment,
  /// stamping execute().
  class Env final : public adets::sched::SchedulerEnv {
   public:
    Env(SpanTable& spans, int replica) : spans_(spans), replica_(replica) {}
    void bind(adets::sched::SchedulerEnv& inner) { inner_ = &inner; }

    void execute(const adets::sched::Request& request) override;
    void broadcast(const adets::common::Bytes& payload) override;
    [[nodiscard]] adets::common::NodeId self() const override;
    [[nodiscard]] std::vector<adets::common::NodeId> view_members() const override;

   private:
    SpanTable& spans_;
    const int replica_;
    // Set once in start(), before the wrapped scheduler can call back.
    adets::sched::SchedulerEnv* inner_ = nullptr;
  };

  template <typename Downcall>
  auto timed_downcall(Downcall&& call);

  const std::unique_ptr<adets::sched::Scheduler> inner_;
  SpanTable& spans_;
  const int replica_;
  Env env_;
};

/// Forwards every ReplicatedObject virtual to `inner`, stamping the
/// dispatch span of replica `replica`.
class TracingObject final : public adets::runtime::ReplicatedObject {
 public:
  TracingObject(std::unique_ptr<adets::runtime::ReplicatedObject> inner, SpanTable& spans,
                int replica);

  adets::common::Bytes dispatch(const std::string& method, const adets::common::Bytes& args,
                                adets::runtime::SyncContext& ctx) override;
  [[nodiscard]] std::uint64_t state_hash() const override;

 private:
  const std::unique_ptr<adets::runtime::ReplicatedObject> inner_;
  SpanTable& spans_;
  const int replica_;
};

}  // namespace perfbench
