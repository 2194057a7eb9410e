#include "report.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>

#include "trace.hpp"

namespace perfbench {

namespace {

std::string number(double value) {
  if (!std::isfinite(value)) value = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

double per_op(std::uint64_t count, const RunResult& run) {
  return run.replied > 0 ? static_cast<double>(count) / static_cast<double>(run.replied) : 0;
}

/// Scheduler counters are summed over the group; per-op figures are
/// reported per replica.
double per_replica_op(std::uint64_t count, const RunResult& run) {
  return per_op(count, run) / kReplicas;
}

const char* verdict(const std::optional<bool>& value) {
  if (!value) return "unknown";
  return *value ? "true" : "false";
}

}  // namespace

std::vector<Metric> end_to_end_metrics(const RunResult& run) {
  return {
      {"throughput_rps", run.throughput_rps, "1/s"},
      {"applied_rps", run.applied_rps, "1/s"},
      {"latency_p50_ms", run.latency_p50_ms, "ms"},
      {"latency_p99_ms", run.latency_p99_ms, "ms"},
      {"cpu_ms_per_op", run.cpu_ms_per_op, "ms"},
      {"setup_s", run.setup_s, "s"},
  };
}

std::vector<Metric> per_layer_metrics(const TracedPair& pair) {
  const RunResult& traced = pair.traced;
  const LayerStats layers = traced.layers.value_or(LayerStats{});
  return {
      {"runtime.client.issue_us_p50", layers.client_issue_us_p50, "us"},
      {"gcs.order_ms_p50", layers.gcs_order_ms_p50, "ms"},
      {"gcs.order_ms_p99", layers.gcs_order_ms_p99, "ms"},
      {"gcs.deliver_skew_ms_p99", layers.gcs_deliver_skew_ms_p99, "ms"},
      {"transport.msgs_per_op", per_op(traced.net_messages, traced), "count"},
      {"transport.bytes_per_op", per_op(traced.net_bytes, traced), "B"},
      {"sched.admit_ms_p50", layers.sched_admit_ms_p50, "ms"},
      {"sched.admit_ms_p99", layers.sched_admit_ms_p99, "ms"},
      {"sched.lock_wait_ms_per_op", layers.sched_lock_wait_ms_per_op, "ms"},
      {"sched.grants_per_op", per_replica_op(traced.sched.lock_grants, traced), "count"},
      {"sched.broadcasts_per_op", per_replica_op(traced.sched.broadcasts, traced), "count"},
      {"sched.rounds_per_op", per_replica_op(traced.sched.rounds, traced), "count"},
      {"sched.threads_per_op", per_replica_op(traced.sched.threads_spawned, traced), "count"},
      {"workload.exec_ms_p50", layers.workload_exec_ms_p50, "ms"},
      {"runtime.reply_ms_p50", layers.runtime_reply_ms_p50, "ms"},
      {"runtime.reply_ms_p99", layers.runtime_reply_ms_p99, "ms"},
      {"runtime.drain_s", traced.drain_s, "s"},
      {"runtime.lag_ops_max", static_cast<double>(traced.lag_ops_max), "count"},
      {"trace.coverage_p50", layers.coverage_p50, "ratio"},
      {"trace.overhead", pair.overhead, "ratio"},
  };
}

bool correct(const RunResult& run) {
  return run.bad_replies == 0 && run.hashes_equal != false;
}

void print_environment(std::ostream& out, const RunEnvironment& env) {
  out << "env clock_scale=" << env.clock_scale << " nproc=" << env.nproc
      << " loadavg_1min=" << env.loadavg_1min << " build_type=" << env.build_type
      << " optimized=" << (env.optimized ? "true" : "false")
      << " lock_order_check=" << (env.lock_order_check ? "true" : "false") << "\n";
}

void print_run(std::ostream& out, const std::string& label, const RunResult& run) {
  const double error_rate =
      run.attempted > 0 ? static_cast<double>(run.failed) / static_cast<double>(run.attempted)
                        : 0;
  out << label << " drained=" << (run.drained ? "true" : "false")
      << " hashes_equal=" << verdict(run.hashes_equal) << "\n"
      << label << " attempted=" << run.attempted << " replied=" << run.replied
      << " bad_replies=" << run.bad_replies << " unapplied=" << run.unapplied
      << " failed=" << run.failed << " error_rate=" << number(error_rate) << "\n"
      << label << " latency_samples=" << run.latency_samples
      << " window_s=" << number(run.window_s) << " drain_s=" << number(run.drain_s)
      << " lag_ops_max=" << run.lag_ops_max << "\n";
  for (std::size_t i = 0; i < run.clusters.size(); ++i) {
    const ClusterStats& c = run.clusters[i];
    out << label << " cluster " << i << " setup_s=" << number(c.setup_s)
        << " throughput_rps=" << number(c.throughput_rps)
        << " applied_rps=" << number(c.applied_rps)
        << " latency_p50_ms=" << number(c.latency_p50_ms)
        << " latency_p99_ms=" << number(c.latency_p99_ms)
        << " cpu_ms_per_op=" << number(c.cpu_ms_per_op) << "\n";
  }
  out << label << " net messages=" << run.net_messages << " bytes=" << run.net_bytes
      << " sched grants=" << run.sched.lock_grants << " broadcasts=" << run.sched.broadcasts
      << " rounds=" << run.sched.rounds << " activations=" << run.sched.activations
      << " threads_spawned=" << run.sched.threads_spawned << "\n";
  if (run.layers) out << label << " traced_spans=" << run.layers->spans << "\n";
}

void print_metrics(std::ostream& out, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    out << "metric " << m.name << " " << number(m.value) << " " << m.unit << "\n";
  }
}

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  return json;
}

}  // namespace perfbench
