#include "cpp/report.hpp"

#include <cinttypes>
#include <cstdio>

namespace lslbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"cpu_ms_per_session", "ms"},
      {"peak_rss_mb", "MiB"},
      {"setup_s", "s"},
  };
  return defs;
}

const std::vector<MetricDef>& reported_metrics() {
  static const std::vector<MetricDef> defs = {
      {"sessions_per_s", "1/s"},
      {"goodput_mbps", "Mbit/s"},
      {"sim_mib_per_s", "MiB/s"},
      {"session_p50_ms", "ms"},
      {"session_p99_ms", "ms"},
      {"small_p99_ms", "ms"},
      {"fail_ratio", "ratio"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"lsd.busy_us_per_session", "us"},
      {"lsd.busy_share", "ratio"},
      {"lsd.events_per_session", "count"},
      {"lsd.dispatch_p99_ms", "ms"},
      {"lsd.shard_accept_skew", "ratio"},
      {"lsd.spliced_share", "ratio"},
      {"lsd.sessions_failed", "count"},
      {"lsd.sessions_refused", "count"},
      {"source.busy_us_per_session", "us"},
      {"source.busy_share", "ratio"},
      {"sink.busy_us_per_session", "us"},
      {"sink.busy_share", "ratio"},
      {"engine.events_per_iteration", "count"},
      {"pool.allocs_per_session", "count"},
      {"pool.reuse_rate", "ratio"},
      {"pool.peak_mib", "MiB"},
      {"pool.refusals", "count"},
      {"pool.acquire_release_ns", "ns"},
      {"md5.mib_per_s", "MiB/s"},
      {"payload.mib_per_s", "MiB/s"},
      {"wire.encode_ns", "ns"},
      {"wire.decode_ns", "ns"},
      {"stage.to_sink_accept_ms", "ms"},
      {"stage.sink_ms", "ms"},
      {"stage.status_ms", "ms"},
      {"stage.header_read_ms", "ms"},
      {"stage.dial_ms", "ms"},
      {"stage.stream_ms", "ms"},
      {"trace.overhead_ratio", "ratio"},
      {"sim.direct_ms_per_run", "ms"},
      {"sim.lsl_ms_per_run", "ms"},
      {"sim.event_queue_ns_per_event", "ns"},
      {"gen.late_p99_ms", "ms"},
      {"gen.inflight_cap_hits", "count"},
      {"fail_ratio", "ratio"},
  };
  return defs;
}

namespace {

void print_line(const MetricDef& d, const Value& v, const char* note) {
  if (v.samples > 0) {
    std::printf("%-30s %14.6f %-7s (n=%zu)%s\n", d.name, v.value, d.unit,
                v.samples, note);
  } else {
    std::printf("%-30s %14.6f %s%s\n", d.name, v.value, d.unit, note);
  }
}

}  // namespace

bool print_result(const Result& result, const std::vector<MetricDef>& catalogue,
                  bool missing_is_zero, const std::vector<MetricDef>& reported) {
  for (const auto& [key, value] : result.facts) {
    std::printf("# %s: %s\n", key.c_str(), value.c_str());
  }
  for (const std::string& p : result.problems) {
    std::printf("# INCORRECT: %s\n", p.c_str());
  }
  std::string json;
  bool complete = true;
  for (const MetricDef& d : catalogue) {
    const auto it = result.values.find(d.name);
    if (it == result.values.end() && !missing_is_zero) {
      std::fprintf(stderr, "lslbench: %s could not be measured\n", d.name);
      complete = false;
      continue;
    }
    const Value v = it == result.values.end() ? Value{} : it->second;
    print_line(d, v, "");
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", d.name, v.value, d.unit);
    json += buf;
  }
  for (const MetricDef& d : reported) {
    const auto it = result.values.find(d.name);
    if (it == result.values.end()) {
      std::printf("%-30s %14s %-7s (too few samples; not gated)\n", d.name,
                  "-", d.unit);
    } else {
      print_line(d, it->second, " (not gated)");
    }
  }
  if (!complete) return false;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
              result.correct ? "true" : "false", result.attempted,
              result.failed, json.c_str());
  std::fflush(stdout);
  return true;
}

}  // namespace lslbench
