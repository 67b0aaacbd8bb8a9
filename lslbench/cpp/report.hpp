// The metric catalogue (the names BENCHMARK.json declares) and the result
// printer: human-readable lines, then one JSON object as the last line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace lslbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed by untraced runs (--trace 0), in this order.
const std::vector<MetricDef>& end_to_end_metrics();
/// Printed by traced runs (--trace 1), in this order.
const std::vector<MetricDef>& per_layer_metrics();
/// Printed by untraced runs after the end-to-end metrics but left out of
/// the JSON result: rates and session times, which the host's slow and fast
/// stretches move too far to gate a change on, and the failure ratio.
const std::vector<MetricDef>& reported_metrics();

struct Value {
  double value = 0.0;
  std::size_t samples = 0;  ///< nonzero for a percentile: its sample count
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Value> values;
  /// Host and path facts, printed before the metrics.
  std::vector<std::pair<std::string, std::string>> facts;
  /// Why the run is not correct, one line each.
  std::vector<std::string> problems;
};

/// Print `result` for the metrics in `catalogue`, then the `reported`
/// ones as text only. A per-layer metric the workload does not exercise
/// prints as 0; a missing end-to-end metric is an error (returns false,
/// prints no JSON).
bool print_result(const Result& result, const std::vector<MetricDef>& catalogue,
                  bool missing_is_zero, const std::vector<MetricDef>& reported);

}  // namespace lslbench
