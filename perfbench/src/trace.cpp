#include "trace.hpp"

#include "runtime/context.hpp"

namespace perfbench {

using adets::common::Bytes;
using adets::common::CondVarId;
using adets::common::Duration;
using adets::common::MutexId;
using adets::common::NodeId;
using adets::common::RequestId;
namespace sched = adets::sched;

namespace {

/// The span whose dispatch() is running on this thread, so the
/// scheduler decorator can charge lock()/wait() time to it.
struct CurrentDispatch {
  Span* span = nullptr;
  int replica = 0;
};
thread_local CurrentDispatch t_current;

}  // namespace

// --- SpanTable ----------------------------------------------------------------

Span& SpanTable::at(RequestId id) {
  Stripe& stripe = stripes_[std::hash<std::uint64_t>{}(id.value()) % kStripes];
  const std::lock_guard<std::mutex> guard(stripe.mutex);
  return stripe.spans.try_emplace(id.value()).first->second;
}

const Span* SpanTable::find(RequestId id) const {
  const Stripe& stripe = stripes_[std::hash<std::uint64_t>{}(id.value()) % kStripes];
  const std::lock_guard<std::mutex> guard(stripe.mutex);
  const auto it = stripe.spans.find(id.value());
  return it == stripe.spans.end() ? nullptr : &it->second;
}

// --- TracingScheduler -----------------------------------------------------------

TracingScheduler::TracingScheduler(std::unique_ptr<sched::Scheduler> inner, SpanTable& spans,
                                   int replica)
    : inner_(std::move(inner)), spans_(spans), replica_(replica), env_(spans, replica) {}

template <typename Downcall>
auto TracingScheduler::timed_downcall(Downcall&& call) {
  Span* const span = t_current.span;
  const std::int64_t begin = span != nullptr ? stamp() : 0;
  // Charged on every exit, including ReplicaStopping thrown at teardown.
  struct Charge {
    Span* span;
    int replica;
    std::int64_t begin;
    ~Charge() {
      if (span != nullptr) {
        span->downcall_ns[replica].fetch_add(stamp() - begin, std::memory_order_relaxed);
      }
    }
  } charge{span, t_current.replica, begin};
  return call();
}

sched::SchedulerKind TracingScheduler::kind() const { return inner_->kind(); }

sched::SchedulerCapabilities TracingScheduler::capabilities() const {
  return inner_->capabilities();
}

void TracingScheduler::start(sched::SchedulerEnv& env) {
  env_.bind(env);
  inner_->start(env_);
}

void TracingScheduler::stop() { inner_->stop(); }

void TracingScheduler::on_request(sched::Request request) {
  if (request.kind == sched::RequestKind::kApplication) {
    spans_.at(request.id).deliver[replica_].store(stamp(), std::memory_order_relaxed);
  }
  inner_->on_request(std::move(request));
}

void TracingScheduler::on_reply(RequestId nested_id) { inner_->on_reply(nested_id); }

void TracingScheduler::on_scheduler_message(NodeId sender, const Bytes& payload) {
  inner_->on_scheduler_message(sender, payload);
}

void TracingScheduler::on_view_change(const std::vector<NodeId>& members) {
  inner_->on_view_change(members);
}

void TracingScheduler::lock(MutexId mutex) {
  timed_downcall([&] { inner_->lock(mutex); });
}

void TracingScheduler::unlock(MutexId mutex) { inner_->unlock(mutex); }

sched::WaitResult TracingScheduler::wait(MutexId mutex, CondVarId condvar, Duration timeout) {
  return timed_downcall([&] { return inner_->wait(mutex, condvar, timeout); });
}

void TracingScheduler::notify_one(MutexId mutex, CondVarId condvar) {
  inner_->notify_one(mutex, condvar);
}

void TracingScheduler::notify_all(MutexId mutex, CondVarId condvar) {
  inner_->notify_all(mutex, condvar);
}

void TracingScheduler::yield() { inner_->yield(); }

void TracingScheduler::before_nested_call(RequestId nested_id) {
  inner_->before_nested_call(nested_id);
}

void TracingScheduler::after_nested_call(RequestId nested_id) {
  inner_->after_nested_call(nested_id);
}

void TracingScheduler::set_trace(bool enabled) { inner_->set_trace(enabled); }

std::vector<sched::GrantRecord> TracingScheduler::grant_trace() const {
  return inner_->grant_trace();
}

std::vector<sched::Decision> TracingScheduler::decision_trace() const {
  return inner_->decision_trace();
}

std::uint64_t TracingScheduler::completed_requests() const {
  return inner_->completed_requests();
}

sched::SchedulerStats TracingScheduler::stats() const { return inner_->stats(); }

// --- TracingScheduler::Env --------------------------------------------------------

void TracingScheduler::Env::execute(const sched::Request& request) {
  if (request.kind != sched::RequestKind::kApplication) {
    inner_->execute(request);
    return;
  }
  Span& span = spans_.at(request.id);
  span.exec_begin[replica_].store(stamp(), std::memory_order_relaxed);
  inner_->execute(request);
  span.exec_end[replica_].store(stamp(), std::memory_order_relaxed);
}

void TracingScheduler::Env::broadcast(const Bytes& payload) { inner_->broadcast(payload); }

NodeId TracingScheduler::Env::self() const { return inner_->self(); }

std::vector<NodeId> TracingScheduler::Env::view_members() const {
  return inner_->view_members();
}

// --- TracingObject ------------------------------------------------------------------

TracingObject::TracingObject(std::unique_ptr<adets::runtime::ReplicatedObject> inner,
                             SpanTable& spans, int replica)
    : inner_(std::move(inner)), spans_(spans), replica_(replica) {}

Bytes TracingObject::dispatch(const std::string& method, const Bytes& args,
                              adets::runtime::SyncContext& ctx) {
  Span& span = spans_.at(ctx.request_id());
  span.dispatch_begin[replica_].store(stamp(), std::memory_order_relaxed);
  // Restores the enclosing dispatch (if any) even when dispatch throws,
  // e.g. ReplicaStopping during teardown.
  struct Scope {
    CurrentDispatch saved = t_current;
    ~Scope() { t_current = saved; }
  } scope;
  t_current = CurrentDispatch{&span, replica_};
  Bytes result = inner_->dispatch(method, args, ctx);
  span.dispatch_end[replica_].store(stamp(), std::memory_order_relaxed);
  return result;
}

std::uint64_t TracingObject::state_hash() const { return inner_->state_hash(); }

}  // namespace perfbench
