// Naming and printing of the benchmark's metrics.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "driver.hpp"
#include "env.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The end-to-end metrics of an untraced run (BENCHMARK.json end_to_end).
[[nodiscard]] std::vector<Metric> end_to_end_metrics(const RunResult& run);

/// The per-layer metrics of a traced run (BENCHMARK.json per_layer),
/// with the tracing overhead measured against its untraced pairs.
[[nodiscard]] std::vector<Metric> per_layer_metrics(const TracedPair& pair);

/// Replies were well-formed and no replica diverged.  An undrained run
/// can still be correct: its unapplied operations count as failed.
[[nodiscard]] bool correct(const RunResult& run);

/// Human-readable lines: environment, verdicts, counts, every metric.
void print_environment(std::ostream& out, const RunEnvironment& env);
void print_run(std::ostream& out, const std::string& label, const RunResult& run);
void print_metrics(std::ostream& out, const std::vector<Metric>& metrics);

/// The final result line: {"correct", "attempted", "failed", "metrics"}.
[[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const std::vector<Metric>& metrics);

}  // namespace perfbench
