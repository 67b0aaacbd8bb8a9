#include "cpp/stats.hpp"

#include <cmath>

#include "util/stats.hpp"

namespace lslbench {

namespace {

/// Blocks a typical run closes; more grow the rate vectors.
constexpr std::size_t kReservedBlocks = 64;

}  // namespace

std::size_t min_samples_for(double q) {
  // Ten samples beyond the percentile: (1 - q) * n >= 10.
  return static_cast<std::size_t>(std::ceil(10.0 / (1.0 - q) - 1e-9));
}

std::optional<double> percentile(const std::vector<double>& samples,
                                 double q) {
  if (samples.empty() || samples.size() < min_samples_for(q)) {
    return std::nullopt;
  }
  return lsl::util::quantile(samples, q);
}

Reservoir::Reservoir(std::size_t capacity, std::uint64_t seed)
    : slots_(capacity), rng_(seed) {}

void Reservoir::add(double value) {
  ++offered_;
  if (filled_ < slots_.size()) {
    slots_[filled_++] = value;
    return;
  }
  const std::uint64_t slot = rng_.uniform_int(0, offered_ - 1);
  if (slot < slots_.size()) slots_[slot] = value;
}

std::vector<double> Reservoir::sample() const {
  return {slots_.begin(), slots_.begin() + static_cast<std::ptrdiff_t>(filled_)};
}

void BlockRate::start(std::int64_t t0_ns) {
  from_ns_ = last_ns_ = t0_ns;
  sessions_ = bytes_ = 0.0;
  session_rates_.clear();
  byte_rates_.clear();
  session_rates_.reserve(kReservedBlocks);
  byte_rates_.reserve(kReservedBlocks);
}

void BlockRate::add(std::int64_t t_ns, double sessions, double bytes) {
  sessions_ += sessions;
  bytes_ += bytes;
  last_ns_ = t_ns;
  if (t_ns - from_ns_ < block_ns_) return;
  const double s = static_cast<double>(t_ns - from_ns_) / 1e9;
  session_rates_.push_back(sessions_ / s);
  byte_rates_.push_back(bytes_ / s);
  from_ns_ = t_ns;
  sessions_ = bytes_ = 0.0;
}

namespace {

double block_median(const std::vector<double>& closed, double open,
                    std::int64_t open_ns) {
  if (!closed.empty()) return lsl::util::median(closed);
  return open_ns > 0 ? open / (static_cast<double>(open_ns) / 1e9) : 0.0;
}

}  // namespace

double BlockRate::sessions_per_s() const {
  return block_median(session_rates_, sessions_, last_ns_ - from_ns_);
}

double BlockRate::bytes_per_s() const {
  return block_median(byte_rates_, bytes_, last_ns_ - from_ns_);
}

}  // namespace lslbench
