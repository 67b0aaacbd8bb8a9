#include "cpp/sim_workload.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "cpp/clock.hpp"
#include "exp/scenarios.hpp"
#include "metrics/metrics.hpp"
#include "util/rng.hpp"

namespace lslbench {

namespace exp = lsl::exp;

namespace {

/// Fixed simulator seeds; the benchmark seed only shuffles the order in
/// which the cases run.
constexpr std::uint64_t kSimSeeds[] = {1, 2, 3, 4};

const char* mode_name(exp::Mode m) {
  return m == exp::Mode::kLsl ? "lsl" : "direct";
}

}  // namespace

const std::vector<std::uint64_t>& sim_sizes() {
  // Below the crossover, at its top end, and two bulk sizes.
  static const std::vector<std::uint64_t> sizes = {16u << 10, 64u << 10,
                                                   256u << 10, 1u << 20};
  return sizes;
}

std::vector<SimCase> sim_cases() {
  std::vector<SimCase> out;
  for (exp::Mode mode : {exp::Mode::kDirectTcp, exp::Mode::kLsl}) {
    for (std::uint64_t bytes : sim_sizes()) {
      for (std::uint64_t seed : kSimSeeds) out.push_back({mode, bytes, seed});
    }
  }
  return out;
}

std::string sim_key(const SimCase& c) {
  return std::string(mode_name(c.mode)) + "/" + std::to_string(c.bytes) +
         "/" + std::to_string(c.sim_seed);
}

SimOutcome run_sim_case(const SimCase& c, bool instrumented) {
  exp::RunConfig cfg;
  cfg.mode = c.mode;
  cfg.bytes = c.bytes;
  cfg.seed = c.sim_seed;
  lsl::metrics::Registry registry;
  if (instrumented) cfg.metrics = &registry;
  const exp::TransferResult r = exp::run_transfer(exp::case1_ucsb_uiuc(), cfg);
  return {r.completed, r.bytes, r.seconds, r.retransmits, r.verified};
}

std::optional<SimReference> load_sim_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  SimReference ref;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    SimOutcome o;
    int completed = 0;
    int verified = 0;
    std::string seconds;
    if (!(fields >> key >> completed >> o.bytes >> seconds >> o.retransmits >>
          verified)) {
      return std::nullopt;
    }
    o.completed = completed != 0;
    o.verified = verified != 0;
    o.seconds = std::strtod(seconds.c_str(), nullptr);
    ref[key] = o;
  }
  return ref;
}

bool write_sim_reference(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "# sim_crossover reference: key completed bytes "
               "simulated_seconds retransmits verified\n");
  for (const SimCase& c : sim_cases()) {
    const SimOutcome o = run_sim_case(c, false);
    std::fprintf(f, "%s %d %" PRIu64 " %.17g %" PRIu64 " %d\n",
                 sim_key(c).c_str(), o.completed ? 1 : 0, o.bytes, o.seconds,
                 o.retransmits, o.verified ? 1 : 0);
  }
  return std::fclose(f) == 0;
}

SimPhaseResult run_sim_phase(const std::string& reference_path,
                             std::uint64_t seed, double seconds,
                             bool instrumented) {
  SimPhaseResult out;
  const double setup0 = cpu_seconds();
  const std::optional<SimReference> ref = load_sim_reference(reference_path);
  std::vector<SimCase> cases = sim_cases();
  if (!ref) throw std::runtime_error("cannot read " + reference_path);
  for (const SimCase& c : cases) {
    if (ref->count(sim_key(c)) == 0) {
      throw std::runtime_error(reference_path + " lacks " + sim_key(c));
    }
  }
  // Warm-up: every case once.
  for (const SimCase& c : cases) {
    ++out.attempted;
    if (!(run_sim_case(c, instrumented) == ref->at(sim_key(c)))) {
      ++out.mismatched;
    }
  }
  out.setup_s = cpu_seconds() - setup0;
  if (seconds <= 0.0) return out;

  lsl::util::Rng rng(seed);
  std::shuffle(cases.begin(), cases.end(), rng);
  const double cpu0 = cpu_seconds();
  const std::int64_t t0 = now_ns();
  out.rate.start(t0);
  const auto end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  double runs = 0.0;
  double bytes = 0.0;
  for (std::size_t i = 0; now_ns() < end; i = (i + 1) % cases.size()) {
    const SimCase& c = cases[i];
    const std::int64_t start = now_ns();
    const SimOutcome o = run_sim_case(c, instrumented);
    const std::int64_t done = now_ns();
    const double ms = (done - start) / 1e6;
    ++out.attempted;
    if (o == ref->at(sim_key(c))) {
      out.wall_ms.push_back(ms);
      if (c.bytes == sim_sizes().front()) out.small_wall_ms.push_back(ms);
      (c.mode == exp::Mode::kLsl ? out.lsl_ms : out.direct_ms).push_back(ms);
      runs += 1.0;
      bytes += static_cast<double>(o.bytes);
    } else {
      ++out.mismatched;
    }
    if (i + 1 == cases.size()) {
      out.rate.add(done, runs, bytes);
      runs = bytes = 0.0;
    }
  }
  out.cpu_s = cpu_seconds() - cpu0;
  return out;
}

}  // namespace lslbench
