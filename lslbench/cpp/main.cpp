// lslbench: runs one workload of the repository's benchmark and prints its
// metrics, the last line being one JSON object.
//
//   lslbench --workload small_4k|bulk_2m|mixed_open|sim_crossover
//            --seed N --seconds S --trace 0|1
//   lslbench --record-sim-reference PATH   (rewrites the sim references)
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "cpp/sim_workload.hpp"
#include "cpp/workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: lslbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n       lslbench --record-sim-reference PATH\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  lslbench::RunRequest req;
  req.sim_reference = std::string(LSLBENCH_DIR) + "/sim_reference.txt";
  req.nproc = static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (arg == "--workload") {
      req.workload = v;
    } else if (arg == "--seed") {
      req.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      req.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      req.trace = std::strcmp(v, "1") == 0;
    } else if (arg == "--record-sim-reference") {
      return lslbench::write_sim_reference(v) ? 0 : 1;
    } else {
      return usage();
    }
  }
  bool known = false;
  for (const char* w : lslbench::kWorkloads) known = known || req.workload == w;
  if (!known || req.seconds <= 0.0) return usage();

  try {
    const lslbench::Result r = lslbench::run_workload(req);
    const bool printed =
        req.trace
            ? lslbench::print_result(r, lslbench::per_layer_metrics(), true, {})
            : lslbench::print_result(r, lslbench::end_to_end_metrics(), false,
                                     lslbench::reported_metrics());
    return printed ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lslbench: %s\n", e.what());
    return 1;
  }
}
