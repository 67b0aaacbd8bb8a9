// Sample statistics the benchmark reports: percentiles with the
// sample-count rule the report enforces, and the fixed-footprint
// accumulators a measured window feeds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/rng.hpp"

namespace lslbench {

/// A percentile over `q` in (0, 1) is only reported when at least ten
/// samples lie beyond it: p50 needs 20, p99 needs 1000.
std::size_t min_samples_for(double q);

/// lsl::util::quantile of `samples`, or nullopt when there are fewer than
/// min_samples_for(q).
std::optional<double> percentile(const std::vector<double>& samples,
                                 double q);

/// A uniform sample of at most `capacity` of the values offered to it
/// (Algorithm R, seeded). Its storage is allocated and written when it is
/// built, so its footprint is the same however many values a run offers.
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed);

  void add(double value);
  /// Values offered so far; the sample holds min(offered, capacity).
  std::uint64_t offered() const { return offered_; }
  std::vector<double> sample() const;

 private:
  std::vector<double> slots_;
  std::size_t filled_ = 0;
  std::uint64_t offered_ = 0;
  lsl::util::Rng rng_;
};

/// Throughput over blocks of about `block_ns`: a block closes at the first
/// event at least `block_ns` after the previous block closed (the window
/// start, for the first), and holds the sessions and bytes of the events
/// up to it. Rates are medians over the closed blocks, so one slow stretch
/// of a run moves few blocks; before any block closes they are the rates
/// of the open one. Events are added in time order.
class BlockRate {
 public:
  explicit BlockRate(std::int64_t block_ns = 1'000'000'000)
      : block_ns_(block_ns) {}

  void start(std::int64_t t0_ns);
  void add(std::int64_t t_ns, double sessions, double bytes);
  double sessions_per_s() const;
  double bytes_per_s() const;

 private:
  std::int64_t block_ns_;
  std::int64_t from_ns_ = 0;
  std::int64_t last_ns_ = 0;
  double sessions_ = 0.0;  ///< in the open block
  double bytes_ = 0.0;
  std::vector<double> session_rates_;  ///< per closed block
  std::vector<double> byte_rates_;
};

}  // namespace lslbench
