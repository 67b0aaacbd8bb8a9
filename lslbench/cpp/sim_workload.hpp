// sim_crossover: exp::run_transfer on case 1 (UCSB -> UIUC via Denver) in
// direct-TCP and LSL modes, at sizes on both sides of the paper's 32-64 KB
// crossover and into bulk. Only the simulator runs here; no socket opens.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cpp/stats.hpp"
#include "exp/runner.hpp"

namespace lslbench {

/// One simulated transfer: fixed mode, size and simulator seed.
struct SimCase {
  lsl::exp::Mode mode = lsl::exp::Mode::kDirectTcp;
  std::uint64_t bytes = 0;
  std::uint64_t sim_seed = 1;
};

/// What a case must reproduce exactly, run after run.
struct SimOutcome {
  bool completed = false;
  std::uint64_t bytes = 0;
  double seconds = 0.0;  ///< simulated seconds, source start -> sink done
  std::uint64_t retransmits = 0;
  bool verified = false;

  friend bool operator==(const SimOutcome&, const SimOutcome&) = default;
};

/// Payload sizes of the workload; the first is its small class.
const std::vector<std::uint64_t>& sim_sizes();

/// Every case: both modes x sim_sizes() x the fixed simulator seeds.
std::vector<SimCase> sim_cases();

/// "direct/16384/3"-style key of a case in the reference file.
std::string sim_key(const SimCase& c);

SimOutcome run_sim_case(const SimCase& c, bool instrumented);

/// Reference file: one "key completed bytes seconds retransmits verified"
/// line per case, seconds printed with 17 significant digits so the
/// comparison is exact.
using SimReference = std::map<std::string, SimOutcome>;
std::optional<SimReference> load_sim_reference(const std::string& path);
bool write_sim_reference(const std::string& path);

/// One measured window of sim_crossover.
struct SimPhaseResult {
  /// Process CPU seconds to load the reference and run one warm-up pass
  /// over every case, each checked.
  double setup_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t mismatched = 0;  ///< differed from the reference
  std::vector<double> wall_ms;        ///< per transfer
  /// Transfers that matched the reference and their simulated payload,
  /// added once per pass over every case (each pass holds the same work,
  /// in another order).
  BlockRate rate;
  std::vector<double> small_wall_ms;  ///< transfers of the small class
  std::vector<double> direct_ms;
  std::vector<double> lsl_ms;
  double cpu_s = 0.0;
};

/// Load the reference, warm up, then run the cases in a `seed`-shuffled
/// cycle for `seconds` (0: set-up only). Throws std::runtime_error when
/// the reference file is missing or incomplete.
SimPhaseResult run_sim_phase(const std::string& reference_path,
                             std::uint64_t seed, double seconds,
                             bool instrumented);

}  // namespace lslbench
