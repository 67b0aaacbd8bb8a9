// A benchmark run: one workload, untraced (end-to-end metrics) or traced
// (per-layer metrics), turned into a Result.
#pragma once

#include <cstdint>
#include <string>

#include "cpp/posix_workloads.hpp"
#include "cpp/report.hpp"

namespace lslbench {

inline constexpr const char* kWorkloads[] = {"small_4k", "bulk_2m",
                                             "mixed_open", "sim_crossover"};

struct RunRequest {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string sim_reference;  ///< path of the sim_crossover reference file
  int nproc = 1;
};

/// Untraced: set up kSetupRepeats times (setup_s is their median) and
/// measure in the last. Traced: half the time untraced, half traced, then
/// the leaf-layer timings. Throws on a workload it does not know.
Result run_workload(const RunRequest& request);

/// Add a phase's sessions to attempted/failed, flag any session the source
/// reported done but the sink did not verify, and set fail_ratio.
void tally_sessions(const PhaseResult& phase, Result& result);

/// The end-to-end metrics one posix phase yields (setup_s and peak_rss_mb
/// excepted); percentiles lacking samples are left out.
void posix_end_to_end(const PhaseResult& phase, Result& result);

}  // namespace lslbench
