// The run environment: pinned where it affects the numbers, recorded
// where it can only be observed.
#pragma once

#include <string>

namespace perfbench {

/// Paper time runs at this fraction of real time (the paper's 100 ms
/// compute becomes 5 ms).  Pinned, not inherited from ADETS_TIME_SCALE.
inline constexpr double kClockScale = 0.05;

struct RunEnvironment {
  double clock_scale = 0;
  unsigned nproc = 0;
  double loadavg_1min = -1;  // -1 when /proc/loadavg is unreadable
  std::string build_type;
  bool optimized = false;         // compiled with optimisation
  bool lock_order_check = false;  // ADETS_LOCK_ORDER_CHECK defined
};

/// Sets common::Clock's scale to kClockScale and records the rest.
[[nodiscard]] RunEnvironment pin_environment();

/// Why numbers from this build must not be reported ("" when fine).
[[nodiscard]] std::string refusal(const RunEnvironment& env);

}  // namespace perfbench
