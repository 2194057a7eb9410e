// perfbench: one closed-loop run of one workload.
//
//   perfbench --workload kv_sat --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics, splitting the window over
// the workload's fresh clusters; --trace 1 measures the same workload
// untraced and traced, each for the whole window split over as many
// clusters that alternate with the other kind's, and reports the
// per-layer metrics.  Human-readable lines come first; the last line of standard
// output is the JSON result.  Exit status: 0 correct, 1 incorrect
// replies or diverged replicas, 2 usage or run error, 3 refused build.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "driver.hpp"
#include "env.hpp"
#include "report.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload <name> --seed <n> --seconds <s> --trace <0|1>\n  workloads:";
  for (const auto& spec : perfbench::workloads()) std::cerr << " " << spec.name;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string seed = "1";
  std::string seconds = "10";
  std::string trace = "0";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--workload") workload = argv[i + 1];
    else if (flag == "--seed") seed = argv[i + 1];
    else if (flag == "--seconds") seconds = argv[i + 1];
    else if (flag == "--trace") trace = argv[i + 1];
    else return usage(argv[0]);
  }
  if (argc % 2 == 0) return usage(argv[0]);

  perfbench::RunOptions options;
  options.spec = perfbench::find_workload(workload);
  if (options.spec == nullptr || (trace != "0" && trace != "1")) return usage(argv[0]);
  options.clusters = options.spec->clusters;
  try {
    options.seed = std::stoull(seed);
    options.seconds = std::stod(seconds);
  } catch (const std::exception&) {
    return usage(argv[0]);
  }
  if (!(options.seconds > 0 && options.seconds <= 120)) return usage(argv[0]);

  const perfbench::RunEnvironment env = perfbench::pin_environment();
  perfbench::print_environment(std::cout, env);
  if (const std::string why = perfbench::refusal(env); !why.empty()) {
    std::cerr << "perfbench: refusing to report numbers: " << why << "\n";
    return 3;
  }
  std::cout << "run workload=" << workload << " seed=" << options.seed
            << " seconds=" << seconds << " trace=" << trace << "\n";

  try {
    if (trace == "0") {
      const perfbench::RunResult run = perfbench::run_workload(options);
      const auto metrics = perfbench::end_to_end_metrics(run);
      perfbench::print_run(std::cout, "untraced", run);
      perfbench::print_metrics(std::cout, metrics);
      const bool ok = perfbench::correct(run);
      std::cout << perfbench::result_json(ok, run.attempted, run.failed, metrics) << std::endl;
      return ok ? 0 : 1;
    }
    const perfbench::TracedPair pair = perfbench::run_traced_pair(options);
    const perfbench::RunResult& untraced = pair.untraced;
    const perfbench::RunResult& traced = pair.traced;
    perfbench::print_run(std::cout, "untraced", untraced);
    perfbench::print_run(std::cout, "traced", traced);
    const auto metrics = perfbench::per_layer_metrics(pair);
    perfbench::print_metrics(std::cout, metrics);
    const bool ok = perfbench::correct(untraced) && perfbench::correct(traced);
    std::cout << perfbench::result_json(ok, untraced.attempted + traced.attempted,
                                        untraced.failed + traced.failed, metrics)
              << std::endl;
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: run failed: " << e.what() << "\n";
    return 2;
  }
}
