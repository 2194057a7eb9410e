#include "driver.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "common/clock.hpp"
#include "runtime/cluster.hpp"
#include "trace.hpp"

namespace perfbench {

using adets::common::Bytes;
using adets::common::Clock;
using adets::common::RequestId;
namespace runtime = adets::runtime;
namespace sched = adets::sched;

namespace {

constexpr std::uint64_t kNoId = RequestId::invalid().value();
/// Warmup: completed requests per logical client before measuring.
constexpr int kWarmupPerClient = 16;
/// After a window closes, how long outstanding replies may take.
constexpr std::chrono::seconds kReplyTimeout{20};
/// After the last reply, how long replicas may take to apply every
/// request before the unapplied ones count as failed.
constexpr std::chrono::seconds kDrainTimeout{20};

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

void atomic_min(std::atomic<std::int64_t>& a, std::int64_t v) {
  std::int64_t cur = a.load(std::memory_order_relaxed);
  while (v < cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<std::int64_t>& a, std::int64_t v) {
  std::int64_t cur = a.load(std::memory_order_relaxed);
  while (v > cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

/// total += after - before, counter by counter.
void add_delta(sched::SchedulerStats& total, const sched::SchedulerStats& after,
               const sched::SchedulerStats& before = {}) {
  total.lock_grants += after.lock_grants - before.lock_grants;
  total.waits += after.waits - before.waits;
  total.notifies += after.notifies - before.notifies;
  total.timeouts_fired += after.timeouts_fired - before.timeouts_fired;
  total.nested_calls += after.nested_calls - before.nested_calls;
  total.threads_spawned += after.threads_spawned - before.threads_spawned;
  total.broadcasts += after.broadcasts - before.broadcasts;
  total.activations += after.activations - before.activations;
  total.rounds += after.rounds - before.rounds;
}

/// Network and scheduler counters of one cluster at one instant.
struct Counters {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  sched::SchedulerStats sched;  // summed over replicas
};

/// Client side of one measured request of a traced run.  The issuing
/// thread writes the id once invoke_async returns; the reply may already
/// have been stamped by then (on the connection's delivery thread).
struct Ticket {
  std::atomic<std::uint64_t> id{kNoId};
  std::atomic<std::int64_t> issue_begin{0};
  std::atomic<std::int64_t> issue_end{0};
  std::atomic<std::int64_t> reply{0};
};

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Percentile by rank floor(p * (n - 1)) of an unsorted sample (0 when
/// empty), as workload::run_load computes it.
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(p * static_cast<double>(values.size() - 1));
  return values[rank];
}

/// Per-request samples behind LayerStats, pooled over a run's clusters.
/// Admission, lock wait and execution are taken on the replica whose
/// dispatch finished first: the one on the client's critical path.
/// Coverage is the sum of the named layer terms (order + admit + lock
/// wait + exec + reply) over the client latency; what it leaves out is
/// the delivery skew to that replica and the runtime's time between
/// SchedulerEnv::execute and dispatch.
struct LayerSamples {
  std::vector<double> issue_us;
  std::vector<double> order_ms;
  std::vector<double> skew_ms;
  std::vector<double> admit_ms;
  std::vector<double> exec_ms;
  std::vector<double> reply_ms;
  std::vector<double> coverage;
  double lock_wait_ms = 0;  // summed over requests

  void add(const std::deque<Ticket>& tickets, const SpanTable& spans);
  [[nodiscard]] LayerStats summary() const;
};

void LayerSamples::add(const std::deque<Ticket>& tickets, const SpanTable& spans) {
  for (const Ticket& t : tickets) {
    const std::int64_t replied = t.reply.load();
    const std::uint64_t id = t.id.load();
    if (replied == 0 || id == kNoId) continue;
    const Span* span = spans.find(RequestId(id));
    if (span == nullptr) continue;
    std::int64_t first_deliver = std::numeric_limits<std::int64_t>::max();
    std::int64_t last_deliver = 0;
    int delivered = 0;
    int r = -1;  // the critical-path replica
    for (int i = 0; i < kReplicas; ++i) {
      const std::int64_t d = span->deliver[i].load();
      if (d == 0) continue;
      ++delivered;
      first_deliver = std::min(first_deliver, d);
      last_deliver = std::max(last_deliver, d);
      const std::int64_t done = span->dispatch_end[i].load();
      if (done != 0 && span->exec_begin[i].load() != 0 &&
          (r < 0 || done < span->dispatch_end[r].load())) {
        r = i;
      }
    }
    if (r < 0) continue;
    const std::int64_t begin = t.issue_begin.load();
    const std::int64_t deliver = span->deliver[r].load();
    const std::int64_t exec_begin = span->exec_begin[r].load();
    const std::int64_t dispatch_begin = span->dispatch_begin[r].load();
    const std::int64_t dispatch_end = span->dispatch_end[r].load();
    const std::int64_t downcall = span->downcall_ns[r].load();
    const double order = ms(first_deliver - begin);
    const double admit = ms(exec_begin - deliver);
    const double lock_wait = ms(downcall);
    const double exec = ms(dispatch_end - dispatch_begin - downcall);
    const double reply = ms(replied - dispatch_end);
    issue_us.push_back(static_cast<double>(t.issue_end.load() - begin) / 1e3);
    order_ms.push_back(order);
    if (delivered == kReplicas) skew_ms.push_back(ms(last_deliver - first_deliver));
    admit_ms.push_back(admit);
    lock_wait_ms += lock_wait;
    exec_ms.push_back(exec);
    reply_ms.push_back(reply);
    coverage.push_back((order + admit + lock_wait + exec + reply) / ms(replied - begin));
  }
}

LayerStats LayerSamples::summary() const {
  LayerStats layers;
  layers.spans = coverage.size();
  layers.client_issue_us_p50 = percentile(issue_us, 0.50);
  layers.gcs_order_ms_p50 = percentile(order_ms, 0.50);
  layers.gcs_order_ms_p99 = percentile(order_ms, 0.99);
  layers.gcs_deliver_skew_ms_p99 = percentile(skew_ms, 0.99);
  layers.sched_admit_ms_p50 = percentile(admit_ms, 0.50);
  layers.sched_admit_ms_p99 = percentile(admit_ms, 0.99);
  if (!coverage.empty()) {
    layers.sched_lock_wait_ms_per_op = lock_wait_ms / static_cast<double>(coverage.size());
  }
  layers.workload_exec_ms_p50 = percentile(exec_ms, 0.50);
  layers.runtime_reply_ms_p50 = percentile(reply_ms, 0.50);
  layers.runtime_reply_ms_p99 = percentile(reply_ms, 0.99);
  layers.coverage_p50 = percentile(coverage, 0.50);
  return layers;
}

/// One cluster under closed-loop load: set up, warmed, measured once.
class LoadRun {
 public:
  explicit LoadRun(const RunOptions& options)
      : options_(options),
        spec_(*options.spec),
        spans_(options.traced ? std::make_unique<SpanTable>() : nullptr) {}

  LoadRun(const LoadRun&) = delete;
  LoadRun& operator=(const LoadRun&) = delete;

  ~LoadRun() {
    stopping_.store(true, std::memory_order_release);
    (void)wait_outstanding(kReplyTimeout);
    // Joins every delivery thread: no callback can touch this object
    // once the cluster is stopped.
    if (cluster_) cluster_->stop();
  }

  /// Builds the cluster and warms it up; returns the set-up time (s).
  double set_up();
  /// Measures a window of `seconds`, adding its counts to `result` and
  /// its spans to `layers`; returns its end-to-end metrics (all but
  /// setup_s).
  ClusterStats measure(double seconds, RunResult& result, LayerSamples& layers);

 private:
  struct Session {
    runtime::Client* connection = nullptr;
    std::uint32_t client = 0;
    // Written by whichever thread issues this session's next request
    // (one at a time: the closed loop keeps one request outstanding).
    std::atomic<std::uint64_t> next_index{0};
    std::vector<std::int64_t> latency_ns;  // measured replies
  };

  void issue(Session& s);
  void on_reply(Session& s, std::uint64_t index, std::int64_t issued, bool measured,
                Ticket* ticket, const Bytes& reply);
  [[nodiscard]] bool wait_outstanding(std::chrono::milliseconds timeout) const;
  Ticket& new_ticket() {
    const std::lock_guard<std::mutex> guard(tickets_mutex_);
    return tickets_.emplace_back();
  }
  [[nodiscard]] Counters counters() const;

  const RunOptions& options_;
  const WorkloadSpec& spec_;

  // Driver state and spans are declared before the cluster, so they
  // outlive every callback and decorator the cluster can run.
  const std::unique_ptr<SpanTable> spans_;  // traced runs only
  std::deque<Session> sessions_;
  std::mutex tickets_mutex_;
  std::deque<Ticket> tickets_;
  std::atomic<bool> measuring_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<std::int64_t> outstanding_{0};
  std::atomic<std::int64_t> warm_done_{0};
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> replied_{0};
  std::atomic<std::uint64_t> bad_replies_{0};
  std::atomic<std::int64_t> first_issue_{std::numeric_limits<std::int64_t>::max()};
  std::atomic<std::int64_t> last_reply_{0};

  adets::common::GroupId group_;
  std::unique_ptr<runtime::Cluster> cluster_;
};

double LoadRun::set_up() {
  const auto begin = Clock::now();
  cluster_ = std::make_unique<runtime::Cluster>(cluster_config(spec_, options_.seed));
  sched::SchedulerConfig scheduler = scheduler_config(spec_);
  // Keep every decision of the run, so replicas can be compared whole.
  if (options_.keep_decisions) scheduler.decision_trace_capacity = std::size_t{1} << 20;
  if (spans_) {
    int scheduler_index = 0;
    int object_index = 0;
    const runtime::ObjectFactory inner_object = object_factory(spec_);
    group_ = cluster_->create_group(
        kReplicas,
        [&] {
          return std::make_unique<TracingScheduler>(
              sched::make_scheduler(spec_.scheduler, scheduler), *spans_,
              scheduler_index++);
        },
        [&] { return std::make_unique<TracingObject>(inner_object(), *spans_, object_index++); });
  } else {
    group_ = cluster_->create_group(kReplicas, spec_.scheduler, object_factory(spec_),
                                    scheduler);
  }
  if (options_.keep_decisions) {
    for (int r = 0; r < kReplicas; ++r) {
      cluster_->replica(group_, r).scheduler().set_trace(true);
    }
  }
  std::vector<runtime::Client*> connections;
  for (int c = 0; c < kConnections; ++c) connections.push_back(&cluster_->create_client());
  for (int i = 0; i < spec_.logical_clients; ++i) {
    Session& s = sessions_.emplace_back();
    s.connection = connections[static_cast<std::size_t>(i % kConnections)];
    s.client = static_cast<std::uint32_t>(i);
  }
  for (Session& s : sessions_) issue(s);

  const std::int64_t warm =
      static_cast<std::int64_t>(spec_.logical_clients) * kWarmupPerClient;
  const auto warm_deadline = Clock::now() + std::chrono::seconds(60);
  while (warm_done_.load(std::memory_order_acquire) < warm) {
    if (Clock::now() > warm_deadline) throw std::runtime_error("warmup did not complete");
    Clock::sleep_real(std::chrono::microseconds(200));
  }
  measuring_.store(true, std::memory_order_release);
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

void LoadRun::issue(Session& s) {
  const std::uint64_t index = s.next_index.fetch_add(1, std::memory_order_relaxed);
  const Op op = make_op(spec_, options_.seed, s.client, index);
  const bool measured = measuring_.load(std::memory_order_acquire);
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  if (measured) attempted_.fetch_add(1, std::memory_order_relaxed);
  Ticket* const ticket = spans_ && measured ? &new_ticket() : nullptr;
  const std::int64_t issued = stamp();
  if (measured) atomic_min(first_issue_, issued);
  if (ticket != nullptr) ticket->issue_begin.store(issued, std::memory_order_relaxed);
  const RequestId id = s.connection->invoke_async(
      group_, op.method, op.args, [this, &s, index, issued, measured, ticket](Bytes reply) {
        on_reply(s, index, issued, measured, ticket, reply);
      });
  // `s` may already be issuing its next request on the delivery thread;
  // only the ticket is touched from here on.
  if (ticket != nullptr) {
    ticket->issue_end.store(stamp(), std::memory_order_relaxed);
    ticket->id.store(id.value(), std::memory_order_relaxed);
  }
}

void LoadRun::on_reply(Session& s, std::uint64_t index, std::int64_t issued, bool measured,
                       Ticket* ticket, const Bytes& reply) {
  const std::int64_t now = stamp();
  if (ticket != nullptr) ticket->reply.store(now, std::memory_order_relaxed);
  if (!check_reply(spec_, options_.seed, make_op(spec_, options_.seed, s.client, index),
                   reply)) {
    bad_replies_.fetch_add(1, std::memory_order_relaxed);
  }
  if (measured) {
    s.latency_ns.push_back(now - issued);
    replied_.fetch_add(1, std::memory_order_relaxed);
    atomic_max(last_reply_, now);
  } else {
    warm_done_.fetch_add(1, std::memory_order_release);
  }
  if (!stopping_.load(std::memory_order_acquire)) issue(s);
  // Last: once this reaches zero after stopping, every chain has ended.
  outstanding_.fetch_sub(1, std::memory_order_acq_rel);
}

bool LoadRun::wait_outstanding(std::chrono::milliseconds timeout) const {
  const auto deadline = Clock::now() + timeout;
  while (outstanding_.load(std::memory_order_acquire) > 0) {
    if (Clock::now() > deadline) return false;
    Clock::sleep_real(std::chrono::microseconds(200));
  }
  return true;
}

Counters LoadRun::counters() const {
  const auto net = cluster_->network().stats();
  Counters counters{net.messages_sent, net.bytes_sent, {}};
  for (int r = 0; r < kReplicas; ++r) {
    add_delta(counters.sched, cluster_->replica(group_, r).scheduler().stats());
  }
  return counters;
}

ClusterStats LoadRun::measure(double seconds, RunResult& result, LayerSamples& layers) {
  const Counters before = counters();
  const double cpu0 = cpu_seconds();
  const auto window_end = Clock::now() + std::chrono::duration_cast<adets::common::Duration>(
                                             std::chrono::duration<double>(seconds));

  // Closed loop runs on the delivery threads; sample follower lag here.
  while (Clock::now() < window_end) {
    std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t hi = 0;
    for (int r = 0; r < kReplicas; ++r) {
      const std::uint64_t done = cluster_->replica(group_, r).completed_requests();
      lo = std::min(lo, done);
      hi = std::max(hi, done);
    }
    result.lag_ops_max = std::max(result.lag_ops_max, hi - lo);
    Clock::sleep_real(std::min<adets::common::Duration>(std::chrono::milliseconds(10),
                                                        window_end - Clock::now()));
  }
  stopping_.store(true, std::memory_order_release);
  (void)wait_outstanding(kReplyTimeout);
  const double cpu_s = cpu_seconds() - cpu0;
  const Counters after = counters();
  result.net_messages += after.messages - before.messages;
  result.net_bytes += after.bytes - before.bytes;
  add_delta(result.sched, after.sched, before.sched);

  std::uint64_t issued_total = 0;
  for (const Session& s : sessions_) issued_total += s.next_index.load();
  const bool drained = cluster_->wait_drained(group_, issued_total, kDrainTimeout);
  const std::int64_t applied_at = stamp();
  std::uint64_t slowest = std::numeric_limits<std::uint64_t>::max();
  for (int r = 0; r < kReplicas; ++r) {
    slowest = std::min(slowest, cluster_->replica(group_, r).completed_requests());
  }
  std::optional<bool> hashes_equal;
  if (drained) {
    const auto hashes = cluster_->state_hashes(group_);
    hashes_equal = !hashes.empty() && std::all_of(hashes.begin(), hashes.end(),
                                                  [&](std::uint64_t h) {
                                                    return h == hashes.front();
                                                  });
  }
  if (options_.keep_decisions) {
    for (int r = 0; r < kReplicas; ++r) {
      const auto& scheduler = cluster_->replica(group_, r).scheduler();
      result.grant_traces.push_back(scheduler.grant_trace());
      result.decision_traces.push_back(scheduler.decision_trace());
    }
  }
  cluster_->stop();

  // The run drained and agreed only if every cluster did.
  result.drained = result.drained && drained;
  if (hashes_equal == false) {
    result.hashes_equal = false;
  } else if (!hashes_equal && result.hashes_equal == true) {
    result.hashes_equal.reset();
  }
  const std::uint64_t attempted = attempted_.load();
  const std::uint64_t replied = replied_.load();
  const std::uint64_t bad = bad_replies_.load();
  const std::uint64_t unapplied =
      std::min(attempted, issued_total - std::min(issued_total, slowest));
  std::uint64_t failed = std::min(attempted, std::max(attempted - replied + bad, unapplied));
  if (hashes_equal == false) failed = attempted;
  result.attempted += attempted;
  result.replied += replied;
  result.bad_replies += bad;
  result.unapplied += unapplied;
  result.failed += failed;

  ClusterStats stats;
  std::vector<double> latency_ms;
  for (const Session& s : sessions_) {
    for (const std::int64_t ns : s.latency_ns) latency_ms.push_back(ms(ns));
  }
  result.latency_samples += latency_ms.size();
  stats.latency_p50_ms = percentile(latency_ms, 0.50);
  stats.latency_p99_ms = percentile(latency_ms, 0.99);
  const std::int64_t first = first_issue_.load();
  const std::int64_t last = last_reply_.load();
  if (last > first) {
    const double window_s = static_cast<double>(last - first) / 1e9;
    result.window_s += window_s;
    stats.throughput_rps = static_cast<double>(replied) / window_s;
  }
  // An undrained cluster's window ends at the drain deadline.
  if (applied_at > first) {
    stats.applied_rps = static_cast<double>(attempted - failed) /
                        (static_cast<double>(applied_at - first) / 1e9);
  }
  if (replied > 0) stats.cpu_ms_per_op = cpu_s * 1e3 / static_cast<double>(replied);
  result.drain_s = std::max(result.drain_s,
                            static_cast<double>(applied_at - std::max(last, first)) / 1e9);
  if (spans_) layers.add(tickets_, *spans_);
  return stats;
}

void check(const RunOptions& options) {
  if (options.spec == nullptr || options.clusters < 1 || !(options.seconds > 0)) {
    throw std::invalid_argument("perfbench: bad run options");
  }
}

/// One run's clusters, measured one by one and pooled.
class Run {
 public:
  explicit Run(const RunOptions& options) : options_(options) {
    result_.drained = true;
    result_.hashes_equal = true;
  }

  /// Sets up and measures one more cluster for its share of the window.
  void add_cluster() {
    LoadRun run(options_);
    const double setup_s = run.set_up();
    ClusterStats stats = run.measure(options_.seconds / options_.clusters, result_, layers_);
    stats.setup_s = setup_s;
    result_.clusters.push_back(stats);
  }

  /// The end-to-end metrics over every cluster added, and the pooled
  /// layer summary.
  RunResult finish() {
    const auto over_clusters = [&](double ClusterStats::*metric, double p) {
      std::vector<double> values;
      for (const ClusterStats& c : result_.clusters) values.push_back(c.*metric);
      return percentile(values, p);
    };
    result_.setup_s = over_clusters(&ClusterStats::setup_s, 0.50);
    result_.throughput_rps = over_clusters(&ClusterStats::throughput_rps, 0.50);
    result_.applied_rps = over_clusters(&ClusterStats::applied_rps, 0.50);
    result_.latency_p50_ms = over_clusters(&ClusterStats::latency_p50_ms, 0.50);
    // The tail follows the host's CPU steal, which can last for most of
    // a run; the lower quartile keeps the clusters it spared.
    result_.latency_p99_ms = over_clusters(&ClusterStats::latency_p99_ms, 0.25);
    result_.cpu_ms_per_op = over_clusters(&ClusterStats::cpu_ms_per_op, 0.50);
    if (options_.traced) result_.layers = layers_.summary();
    return std::move(result_);
  }

 private:
  const RunOptions options_;  // every LoadRun refers to this copy
  RunResult result_;
  LayerSamples layers_;
};

}  // namespace

RunResult run_workload(const RunOptions& options) {
  check(options);
  Run run(options);
  for (int i = 0; i < options.clusters; ++i) run.add_cluster();
  return run.finish();
}

TracedPair run_traced_pair(const RunOptions& options) {
  check(options);
  RunOptions untraced_options = options;
  untraced_options.traced = false;
  RunOptions traced_options = options;
  traced_options.traced = true;
  Run untraced(untraced_options);
  Run traced(traced_options);
  for (int i = 0; i < options.clusters; ++i) {
    Run& first = i % 2 == 0 ? untraced : traced;
    Run& second = i % 2 == 0 ? traced : untraced;
    first.add_cluster();
    second.add_cluster();
  }
  TracedPair pair{untraced.finish(), traced.finish(), 0};
  std::vector<double> ratios;
  for (int i = 0; i < options.clusters; ++i) {
    const auto k = static_cast<std::size_t>(i);
    const double base = pair.untraced.clusters[k].throughput_rps;
    ratios.push_back(base > 0 ? pair.traced.clusters[k].throughput_rps / base : 0);
  }
  pair.overhead = percentile(ratios, 0.50);
  return pair;
}

}  // namespace perfbench
