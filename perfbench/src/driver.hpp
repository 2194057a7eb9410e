// The benchmark's closed-loop driver.
//
// Each logical client issues one request, waits for the first replica
// reply, checks it, and issues its next request (the paper's clients
// each wait for their reply).  Logical clients are multiplexed over a
// few client nodes with Client::invoke_async, from this one process.
// Everything goes through the public runtime::Cluster/runtime::Client
// API; a traced run additionally wraps every replica's scheduler and
// object in the decorators of trace.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "inputs.hpp"
#include "sched/api.hpp"

namespace perfbench {

struct RunOptions {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  /// Length of the measured window (real seconds).
  double seconds = 10.0;
  /// Wrap schedulers and objects in the tracing decorators.
  bool traced = false;
  /// The window is split over this many fresh clusters, measured one
  /// after another.  Counts and per-layer samples are pooled; each
  /// end-to-end metric is the median (latency_p99_ms: lower quartile)
  /// of the clusters' own values, so clusters disturbed by the host do
  /// not set it.  Each cluster of a
  /// traced run has its own span table.
  int clusters = 1;
  /// Record every replica's grant trace and whole decision history
  /// (tests).
  bool keep_decisions = false;
};

/// Per-layer numbers of a traced run (see perfbench/README.md).
struct LayerStats {
  std::uint64_t spans = 0;  // measured requests with a complete span
  double client_issue_us_p50 = 0;
  double gcs_order_ms_p50 = 0;
  double gcs_order_ms_p99 = 0;
  double gcs_deliver_skew_ms_p99 = 0;
  double sched_admit_ms_p50 = 0;
  double sched_admit_ms_p99 = 0;
  double sched_lock_wait_ms_per_op = 0;
  double workload_exec_ms_p50 = 0;
  double runtime_reply_ms_p50 = 0;
  double runtime_reply_ms_p99 = 0;
  double coverage_p50 = 0;
};

/// The end-to-end metrics of one cluster (see perfbench/README.md).
struct ClusterStats {
  double setup_s = 0;  // construction + warmup, up to the first measured issue
  double throughput_rps = 0;
  double applied_rps = 0;
  double latency_p50_ms = 0;
  double latency_p99_ms = 0;
  double cpu_ms_per_op = 0;
};

struct RunResult {
  // Operations issued inside the measured window, and their fate.
  std::uint64_t attempted = 0;
  std::uint64_t replied = 0;      // a reply arrived before the reply deadline
  std::uint64_t bad_replies = 0;  // a reply failed check_reply
  std::uint64_t unapplied = 0;    // not applied by every replica by the drain deadline
  std::uint64_t failed = 0;

  /// Every replica applied every issued request (Cluster::wait_drained),
  /// in every cluster of the run.
  bool drained = false;
  /// Cluster::state_hashes all equal; unknown unless drained.
  std::optional<bool> hashes_equal;

  // Medians over the clusters; latency_p99_ms is their lower quartile.
  double throughput_rps = 0;
  double applied_rps = 0;
  double latency_p50_ms = 0;
  double latency_p99_ms = 0;
  double cpu_ms_per_op = 0;
  double setup_s = 0;
  std::vector<ClusterStats> clusters;  // in the order measured
  std::uint64_t latency_samples = 0;

  double window_s = 0;  // first measured issue -> last reply, summed
  double drain_s = 0;   // last reply -> drained (or the drain deadline), max
  std::uint64_t lag_ops_max = 0;

  // Counter deltas over the measured windows.
  std::uint64_t net_messages = 0;
  std::uint64_t net_bytes = 0;
  adets::sched::SchedulerStats sched;  // summed over replicas

  std::optional<LayerStats> layers;  // traced runs only

  std::vector<std::vector<adets::sched::GrantRecord>> grant_traces;
  std::vector<std::vector<adets::sched::Decision>> decision_traces;
};

/// Runs one workload; blocks until measured, drained and torn down.
[[nodiscard]] RunResult run_workload(const RunOptions& options);

struct TracedPair {
  RunResult untraced;
  RunResult traced;
  /// Tracing overhead: the median over pairs of traced ÷ untraced
  /// cluster throughput.
  double overhead = 0;
};

/// Runs the workload untraced and traced (options.traced is ignored),
/// each for options.seconds split over options.clusters clusters.
/// Cluster i of each kind forms pair i; the pairs run back to back in
/// alternating order (untraced first, then traced first, ...), so host
/// drift weighs on both kinds alike, and the median over pairs keeps
/// one disturbed cluster from setting the overhead.
[[nodiscard]] TracedPair run_traced_pair(const RunOptions& options);

}  // namespace perfbench
