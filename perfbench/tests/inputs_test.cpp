// Tests that the benchmark's inputs depend on the seed alone, and that
// its reply check accepts exactly the answers the workload can give.
#include <gtest/gtest.h>

#include <cstdint>

#include "inputs.hpp"
#include "workload/kvstore.hpp"
#include "workload/objects.hpp"

namespace {

using adets::common::Bytes;
using perfbench::find_workload;
using perfbench::make_op;
using perfbench::WorkloadSpec;

/// The first `per_client` requests of every logical client, serialised.
Bytes request_bytes(const WorkloadSpec& spec, std::uint64_t seed, int per_client) {
  Bytes out;
  for (int c = 0; c < spec.logical_clients; ++c) {
    for (int i = 0; i < per_client; ++i) {
      const auto op = make_op(spec, seed, static_cast<std::uint32_t>(c),
                              static_cast<std::uint64_t>(i));
      out.insert(out.end(), op.method.begin(), op.method.end());
      out.push_back(0);
      out.insert(out.end(), op.args.begin(), op.args.end());
    }
  }
  return out;
}

std::uint64_t fnv(const Bytes& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const auto b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(Inputs, SameSeedGivesByteIdenticalRequests) {
  for (const auto& spec : perfbench::workloads()) {
    EXPECT_EQ(request_bytes(spec, 7, 200), request_bytes(spec, 7, 200)) << spec.name;
  }
}

TEST(Inputs, DifferentSeedGivesDifferentRequests) {
  for (const auto& spec : perfbench::workloads()) {
    EXPECT_NE(request_bytes(spec, 7, 200), request_bytes(spec, 8, 200)) << spec.name;
  }
}

// Pins the generator: a change here changes every workload's traffic,
// so numbers measured before it are no longer comparable.
TEST(Inputs, GeneratorIsPinned) {
  EXPECT_EQ(fnv(request_bytes(*find_workload("kv_sat"), 1, 50)), 9680270335591927571ULL);
  EXPECT_EQ(fnv(request_bytes(*find_workload("compute_pds"), 1, 50)), 18091261282317621970ULL);
}

TEST(Inputs, KvLsaReplaysKvSatTraffic) {
  EXPECT_EQ(request_bytes(*find_workload("kv_sat"), 5, 100),
            request_bytes(*find_workload("kv_lsa"), 5, 100));
}

TEST(Inputs, KvTrafficMixMatchesItsDefinition) {
  const WorkloadSpec& spec = *find_workload("kv_sat");
  int puts = 0;
  const int total = 64 * 200;
  for (std::uint32_t c = 0; c < 64; ++c) {
    for (std::uint64_t i = 0; i < 200; ++i) {
      const auto op = make_op(spec, 11, c, i);
      ASSERT_TRUE(op.method == "put" || op.method == "get");
      if (op.method == "put") {
        ++puts;
        adets::common::Reader r(op.args);
        (void)r.str();
        EXPECT_EQ(r.str().size(), perfbench::kValueBytes);
      }
    }
  }
  EXPECT_NEAR(static_cast<double>(puts) / total, 0.5, 0.03);
}

Bytes get_reply(bool exists, const std::string& value) {
  adets::common::Writer w;
  w.boolean(exists);
  w.str(value);
  return w.take();
}

TEST(Inputs, ReplyCheckAcceptsOnlyGeneratedValuesOfTheSameKey) {
  const WorkloadSpec& spec = *find_workload("kv_sat");
  const std::uint64_t seed = 4;
  // Find a put and a get of the same key.
  perfbench::Op put;
  perfbench::Op get;
  perfbench::Op other_get;
  for (std::uint64_t i = 0; put.method.empty() || get.method.empty() || other_get.method.empty();
       ++i) {
    const auto op = make_op(spec, seed, 3, i);
    if (op.method == "put" && put.method.empty()) put = op;
    if (op.method == "get" && !put.method.empty()) {
      adets::common::Reader a(put.args);
      adets::common::Reader b(op.args);
      if (a.str() == b.str()) {
        if (get.method.empty()) get = op;
      } else if (other_get.method.empty()) {
        other_get = op;
      }
    }
  }
  adets::common::Reader r(put.args);
  (void)r.str();
  const std::string value = r.str();

  EXPECT_TRUE(perfbench::check_reply(spec, seed, get, get_reply(true, value)));
  EXPECT_TRUE(perfbench::check_reply(spec, seed, get, get_reply(false, "")));
  EXPECT_FALSE(perfbench::check_reply(spec, seed, other_get, get_reply(true, value)));
  std::string tampered = value;
  tampered.back() = tampered.back() == 'a' ? 'b' : 'a';
  EXPECT_FALSE(perfbench::check_reply(spec, seed, get, get_reply(true, tampered)));
  EXPECT_FALSE(perfbench::check_reply(spec, seed + 1, get, get_reply(true, value)));
  EXPECT_FALSE(perfbench::check_reply(spec, seed, get, Bytes{1}));

  adets::common::Writer ack;
  ack.boolean(true);
  EXPECT_TRUE(perfbench::check_reply(spec, seed, put, ack.take()));

  const WorkloadSpec& compute = *find_workload("compute_pds");
  const auto op = make_op(compute, seed, 0, 0);
  EXPECT_TRUE(perfbench::check_reply(compute, seed, op, adets::workload::pack_u64(0)));
  EXPECT_FALSE(perfbench::check_reply(compute, seed, op, adets::workload::pack_u64(1)));
}

}  // namespace
