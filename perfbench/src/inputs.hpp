// Workload definitions and seeded input generation.
//
// Every request the benchmark sends is a pure function of
// (workload, seed, logical client, request index): the program under
// test only ever receives these generated method/argument pairs, so the
// same seed replays byte-identical traffic however fast the system runs
// (a faster build simply consumes a longer prefix of each client's
// sequence).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/serialization.hpp"
#include "runtime/cluster.hpp"
#include "sched/api.hpp"

namespace perfbench {

enum class ObjectKind { kKvStore, kComputePatterns };

/// One named traffic mix.  See perfbench/README.md for why each exists.
struct WorkloadSpec {
  std::string name;
  ObjectKind object = ObjectKind::kKvStore;
  adets::sched::SchedulerKind scheduler = adets::sched::SchedulerKind::kSat;
  /// Closed-loop logical clients, multiplexed over kConnections client
  /// nodes with Client::invoke_async.
  int logical_clients = 64;
  /// Zero link latency (the overhead profile) or the paper's LAN link.
  bool zero_latency = true;
  /// Sequencer and submit batching as in load_harness's batched mode.
  bool batched_gcs = true;
  /// Fresh clusters a run splits its window over (end-to-end metrics
  /// are medians over them); a --trace 1 run measures this many
  /// untraced/traced pairs.
  int clusters = 11;
};

/// The benchmark's workloads.  kv_lsa is runnable but not listed in
/// BENCHMARK.json while LSA followers fall behind (perfbench/README.md).
[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
/// nullptr when `name` is not a workload.
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

/// Cluster, scheduler and object configuration of a workload.
[[nodiscard]] adets::runtime::ClusterConfig cluster_config(const WorkloadSpec& spec,
                                                           std::uint64_t seed);
[[nodiscard]] adets::sched::SchedulerConfig scheduler_config(const WorkloadSpec& spec);
[[nodiscard]] adets::runtime::ObjectFactory object_factory(const WorkloadSpec& spec);

/// Client nodes every workload's logical clients share.
inline constexpr int kConnections = 4;

/// KvStore traffic: 256 keys, 32-byte values, half puts.
inline constexpr std::uint32_t kKeys = 256;
inline constexpr std::size_t kValueBytes = 32;
/// ComputePatterns traffic: paper Fig. 3 patterns over 10 mutexes with
/// 100 paper-ms of computation each.
inline constexpr std::uint32_t kMutexes = 10;
inline constexpr std::uint64_t kComputePaperMs = 100;

struct Op {
  std::string method;
  adets::common::Bytes args;
};

/// The index-th request of logical client `client` under `seed`.
[[nodiscard]] Op make_op(const WorkloadSpec& spec, std::uint64_t seed, std::uint32_t client,
                         std::uint64_t index);

/// Whether `reply` is a correct answer to `op`.  A KvStore get must
/// return either "absent" or a value that some generated put wrote to
/// the same key (values encode their origin, which is regenerated and
/// compared byte for byte); other methods must return their fixed
/// acknowledgement shape.
[[nodiscard]] bool check_reply(const WorkloadSpec& spec, std::uint64_t seed, const Op& op,
                               const adets::common::Bytes& reply);

}  // namespace perfbench
