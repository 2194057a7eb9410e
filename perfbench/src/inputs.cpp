#include "inputs.hpp"

#include <chrono>
#include <cstdio>
#include <memory>

#include "workload/kvstore.hpp"
#include "workload/objects.hpp"

namespace perfbench {

using adets::common::Bytes;

namespace {

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Stateless per-request randomness: one 64-bit draw per (seed, client,
/// index), so any request can be regenerated in isolation.
std::uint64_t draw(std::uint64_t seed, std::uint32_t client, std::uint64_t index) {
  return splitmix(splitmix(seed) ^ splitmix((std::uint64_t{client} << 40) ^ index));
}

std::string key_name(std::uint32_t key) { return "k" + std::to_string(key); }

/// A put value records where it came from: "v<key>.<client>.<index>."
/// padded with seeded letters to kValueBytes.
std::string value_for(std::uint32_t key, std::uint32_t client, std::uint64_t index,
                      std::uint64_t bits) {
  char head[40];
  const int n = std::snprintf(head, sizeof head, "v%03u.%03u.%010llu.", key, client,
                              static_cast<unsigned long long>(index));
  std::string value(head, static_cast<std::size_t>(n));
  while (value.size() < kValueBytes) {
    value.push_back(static_cast<char>('a' + bits % 26));
    bits = splitmix(bits);
  }
  return value;
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    WorkloadSpec kv_sat;
    kv_sat.name = "kv_sat";

    WorkloadSpec compute_pds;
    compute_pds.name = "compute_pds";
    compute_pds.object = ObjectKind::kComputePatterns;
    compute_pds.scheduler = adets::sched::SchedulerKind::kPds;
    compute_pds.logical_clients = 16;
    compute_pds.zero_latency = false;
    compute_pds.batched_gcs = false;

    WorkloadSpec kv_lsa = kv_sat;
    kv_lsa.name = "kv_lsa";
    kv_lsa.scheduler = adets::sched::SchedulerKind::kLsa;
    // Each undrained cluster waits out the 20 s drain deadline, and
    // run.py stops a run after 175 s.
    kv_lsa.clusters = 1;
    return std::vector<WorkloadSpec>{kv_sat, compute_pds, kv_lsa};
  }();
  return specs;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const auto& spec : workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

adets::runtime::ClusterConfig cluster_config(const WorkloadSpec& spec, std::uint64_t seed) {
  adets::runtime::ClusterConfig config;
  config.seed = seed;
  if (spec.zero_latency) {
    config.link.base_latency = adets::common::Duration::zero();
    config.link.jitter = adets::common::Duration::zero();
  }
  if (spec.batched_gcs) {
    config.gcs.timer_tick = std::chrono::milliseconds(1);
    config.gcs.max_batch_msgs = 64;
    config.gcs.max_batch_bytes = 64 * 1024;
    config.gcs.batch_flush_delay = std::chrono::milliseconds(2);
    config.gcs.submit_flush_delay = std::chrono::milliseconds(2);
  }
  return config;
}

adets::sched::SchedulerConfig scheduler_config(const WorkloadSpec& spec) {
  adets::sched::SchedulerConfig config;
  if (spec.scheduler == adets::sched::SchedulerKind::kPds) config.pds_thread_pool = 16;
  return config;
}

adets::runtime::ObjectFactory object_factory(const WorkloadSpec& spec) {
  if (spec.object == ObjectKind::kKvStore) {
    return [] { return std::make_unique<adets::workload::KvStore>(); };
  }
  return [] { return std::make_unique<adets::workload::ComputePatterns>(kMutexes); };
}

Op make_op(const WorkloadSpec& spec, std::uint64_t seed, std::uint32_t client,
           std::uint64_t index) {
  const std::uint64_t bits = draw(seed, client, index);
  if (spec.object == ObjectKind::kComputePatterns) {
    static const char* const kPatterns[] = {"a", "b", "c", "d"};
    return Op{kPatterns[bits % 4],
              adets::workload::pack_u64(kComputePaperMs, (bits >> 8) % kMutexes)};
  }
  const auto key = static_cast<std::uint32_t>((bits >> 8) % kKeys);
  if (bits % 2 == 0) {
    return Op{"put", adets::workload::KvStore::pack_put(
                         key_name(key), value_for(key, client, index, bits >> 24))};
  }
  return Op{"get", adets::workload::KvStore::pack_key(key_name(key))};
}

bool check_reply(const WorkloadSpec& spec, std::uint64_t seed, const Op& op,
                 const Bytes& reply) {
  try {
    adets::common::Reader r(reply);
    if (spec.object == ObjectKind::kComputePatterns) {
      return r.u64() == 0 && r.exhausted();
    }
    if (op.method == "put") {
      (void)r.boolean();
      return r.exhausted();
    }
    const bool exists = r.boolean();
    const std::string value = r.str();
    if (!r.exhausted()) return false;
    if (!exists) return value.empty();
    unsigned key = 0;
    unsigned client = 0;
    unsigned long long index = 0;
    if (std::sscanf(value.c_str(), "v%3u.%3u.%10llu.", &key, &client, &index) != 3) {
      return false;
    }
    const std::string key_str = key_name(key);
    if (adets::workload::KvStore::pack_key(key_str) != op.args) return false;
    const Op origin = make_op(spec, seed, client, index);
    return origin.method == "put" &&
           origin.args == adets::workload::KvStore::pack_put(key_str, value);
  } catch (const adets::common::SerializationError&) {
    return false;
  }
}

}  // namespace perfbench
