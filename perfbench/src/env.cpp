#include "env.hpp"

#include <fstream>
#include <thread>

#include "common/clock.hpp"

namespace perfbench {

RunEnvironment pin_environment() {
  adets::common::Clock::set_scale(kClockScale);
  RunEnvironment env;
  env.clock_scale = adets::common::Clock::scale();
  env.nproc = std::thread::hardware_concurrency();
  std::ifstream loadavg("/proc/loadavg");
  if (!(loadavg >> env.loadavg_1min)) env.loadavg_1min = -1;
  env.build_type = PERFBENCH_BUILD_TYPE;
#ifdef __OPTIMIZE__
  env.optimized = true;
#endif
#ifdef ADETS_LOCK_ORDER_CHECK
  env.lock_order_check = true;
#endif
  return env;
}

std::string refusal(const RunEnvironment& env) {
  if (!env.optimized) return "built without optimisation (build type '" + env.build_type + "')";
  if (env.lock_order_check) return "built with ADETS_LOCK_ORDER_CHECK";
  return "";
}

}  // namespace perfbench
