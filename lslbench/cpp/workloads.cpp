#include "cpp/workloads.hpp"

#include <sys/utsname.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

#include "cpp/leaf.hpp"
#include "cpp/sim_workload.hpp"
#include "cpp/stats.hpp"
#include "util/stats.hpp"

namespace lslbench {

namespace {

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 9;

constexpr double kMiB = 1024.0 * 1024.0;

/// Peak resident set of this program image: VmHWM, which starts afresh
/// at exec. getrusage's ru_maxrss does not: it keeps the peak of the
/// process that exec'd the benchmark (the Python launcher's, larger than
/// the benchmark's own).
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Store percentile `q` of `samples` under `name` when the sample count
/// supports it.
void put_percentile(Result& r, const char* name,
                    const std::vector<double>& samples, double q) {
  if (const auto v = percentile(samples, q)) {
    r.values[name] = {*v, samples.size()};
  }
}

/// Throughput metrics from the window's block medians.
void put_rates(Result& r, const BlockRate& rate) {
  const double bytes_per_s = rate.bytes_per_s();
  r.values["sessions_per_s"] = {rate.sessions_per_s()};
  r.values["goodput_mbps"] = {bytes_per_s * 8.0 / 1e6};
  r.values["sim_mib_per_s"] = {bytes_per_s / kMiB};
}

double cpu_ms_per_session(const PhaseResult& p) {
  return ratio(p.cpu_s * 1000.0, static_cast<double>(p.window.verified));
}

/// Join the sessions' own boundaries with the depot spans by trace id:
/// source start -> sink accept -> sink verified -> source done, and the
/// depot's header_read, dial and stream intervals.
void stage_metrics(const PhaseResult& p, Result& r) {
  struct DepotSpans {
    double header_read = -1.0;
    double dial = -1.0;
    double stream_start = -1.0;
    double stream_end = -1.0;
  };
  std::unordered_map<std::uint64_t, DepotSpans> depot;
  for (const lsl::span::SpanRecord& s : p.spans) {
    if (s.trace_id == 0 || s.name == nullptr) continue;
    DepotSpans& d = depot[s.trace_id];
    if (std::strcmp(s.name, lsl::span::kSpanHeaderRead) == 0) {
      d.header_read = s.end - s.start;
    } else if (std::strcmp(s.name, lsl::span::kSpanDial) == 0) {
      d.dial = s.end - s.start;
    } else if (std::strcmp(s.name, lsl::span::kSpanStreamWindow) == 0) {
      if (d.stream_start < 0.0 || s.start < d.stream_start) {
        d.stream_start = s.start;
      }
      d.stream_end = std::max(d.stream_end, s.end);
    }
  }
  std::vector<double> to_accept, sink, status, header, dial, stream;
  for (const SessionRecord& s : p.sessions) {
    if (!s.verified() || s.trace_id == 0) continue;
    const double accept_ns =
        static_cast<double>(s.sink_done_ns) - s.sink_seconds * 1e9;
    to_accept.push_back((accept_ns - static_cast<double>(s.start_ns)) / 1e6);
    sink.push_back(s.sink_seconds * 1e3);
    status.push_back(static_cast<double>(s.done_ns - s.sink_done_ns) / 1e6);
    const auto it = depot.find(s.trace_id);
    if (it == depot.end()) continue;  // overwritten in the flight recorder
    const DepotSpans& d = it->second;
    if (d.header_read >= 0.0) header.push_back(d.header_read * 1e3);
    if (d.dial >= 0.0) dial.push_back(d.dial * 1e3);
    if (d.stream_start >= 0.0) {
      stream.push_back((d.stream_end - d.stream_start) * 1e3);
    }
  }
  put_percentile(r, "stage.to_sink_accept_ms", to_accept, 0.5);
  put_percentile(r, "stage.sink_ms", sink, 0.5);
  put_percentile(r, "stage.status_ms", status, 0.5);
  put_percentile(r, "stage.header_read_ms", header, 0.5);
  put_percentile(r, "stage.dial_ms", dial, 0.5);
  put_percentile(r, "stage.stream_ms", stream, 0.5);
}

void posix_per_layer(const PhaseResult& p, Result& r) {
  const double sessions = static_cast<double>(p.window.verified);
  auto per_session_us = [&](const LoopSnapshot& l) {
    return ratio(l.busy_ms * 1000.0, sessions);
  };
  auto share = [&](const LoopSnapshot& l, int threads) {
    return ratio(l.busy_ms / 1000.0, p.wall_s * threads);
  };
  r.values["lsd.busy_us_per_session"] = {per_session_us(p.depot)};
  r.values["lsd.busy_share"] = {share(p.depot, p.depot_threads)};
  r.values["lsd.events_per_session"] = {
      ratio(static_cast<double>(p.depot.events), sessions)};
  r.values["lsd.dispatch_p99_ms"] = {p.depot_dispatch_p99_ms};
  double skew = 1.0;
  if (!p.shard_accepted.empty()) {
    const auto [lo, hi] =
        std::minmax_element(p.shard_accepted.begin(), p.shard_accepted.end());
    skew = ratio(static_cast<double>(*hi), static_cast<double>(*lo));
  }
  r.values["lsd.shard_accept_skew"] = {skew};
  r.values["lsd.spliced_share"] = {
      ratio(static_cast<double>(p.lsd.bytes_spliced),
            static_cast<double>(p.lsd.bytes_relayed))};
  r.values["lsd.sessions_failed"] = {
      static_cast<double>(p.lsd.sessions_failed)};
  r.values["lsd.sessions_refused"] = {
      static_cast<double>(p.lsd.sessions_refused)};
  r.values["source.busy_us_per_session"] = {per_session_us(p.source)};
  r.values["source.busy_share"] = {share(p.source, 1)};
  r.values["sink.busy_us_per_session"] = {per_session_us(p.sink)};
  r.values["sink.busy_share"] = {share(p.sink, 1)};
  r.values["engine.events_per_iteration"] = {
      ratio(static_cast<double>(p.depot.events),
            static_cast<double>(p.depot.iterations))};
  r.values["pool.allocs_per_session"] = {
      ratio(static_cast<double>(p.pool.allocs), sessions)};
  r.values["pool.reuse_rate"] = {ratio(static_cast<double>(p.pool.reuses),
                                       static_cast<double>(p.pool.allocs))};
  r.values["pool.peak_mib"] = {static_cast<double>(p.pool_peak_bytes) / kMiB};
  r.values["pool.refusals"] = {static_cast<double>(p.pool.failures)};
  stage_metrics(p, r);
  put_percentile(r, "gen.late_p99_ms", p.window.late_ms.sample(), 0.99);
  r.values["gen.inflight_cap_hits"] = {static_cast<double>(p.cap_hits)};
}

void leaf_metrics(std::uint64_t seed, Result& r) {
  const LeafTimings t = time_leaf_layers(seed);
  r.values["md5.mib_per_s"] = {t.md5_mib_per_s};
  r.values["payload.mib_per_s"] = {t.payload_mib_per_s};
  r.values["wire.encode_ns"] = {t.wire_encode_ns};
  r.values["wire.decode_ns"] = {t.wire_decode_ns};
  r.values["pool.acquire_release_ns"] = {t.pool_acquire_release_ns};
  r.values["sim.event_queue_ns_per_event"] = {t.event_queue_ns_per_event};
}

void host_facts(const RunRequest& req, Result& r) {
  utsname u{};
  ::uname(&u);
  r.facts.emplace_back("workload", req.workload);
  r.facts.emplace_back("seed", std::to_string(req.seed));
  r.facts.emplace_back("seconds", std::to_string(req.seconds));
  r.facts.emplace_back("trace", req.trace ? "1" : "0");
  r.facts.emplace_back("nproc", std::to_string(req.nproc));
  r.facts.emplace_back("kernel", std::string(u.sysname) + " " + u.release);
  r.facts.emplace_back("build_type", LSLBENCH_BUILD_TYPE);
#if defined(LSL_CONTRACTS_OFF)
  r.facts.emplace_back("contracts", "off");
#else
  r.facts.emplace_back("contracts", "on");
#endif
}

void posix_facts(const TrafficSpec& spec, const PhaseResult& p, Result& r) {
  r.facts.emplace_back("path", "loopback only (127.0.0.1), no real link");
  r.facts.emplace_back("depot",
                       spec.shards > 0
                           ? "ShardedLsd x" + std::to_string(spec.shards)
                           : std::string("classic Lsd"));
  r.facts.emplace_back("role_threads", std::to_string(p.threads));
  r.facts.emplace_back(
      "offered", spec.open_loop
                     ? "open loop, " + std::to_string(spec.rate_per_s) +
                           " sessions/s, in-flight cap " +
                           std::to_string(spec.inflight)
                     : "closed loop, " + std::to_string(spec.inflight) +
                           " sessions in flight");
  r.facts.emplace_back("splice_engaged",
                       p.lsd.bytes_spliced > 0 ? "yes" : "no");
  r.facts.emplace_back(
      "latency_samples",
      std::to_string(p.window.latency_ms.sample().size()) + " of " +
          std::to_string(p.window.latency_ms.offered()) +
          " sessions (uniform sample)");
}

Result run_posix(const RunRequest& req) {
  Result r;
  const TrafficSpec spec = posix_spec(req.workload, req.nproc);
  PhaseOptions opt;
  opt.seed = req.seed;
  opt.nproc = req.nproc;
  if (!req.trace) {
    std::vector<double> setups;
    for (int i = 0; i < kSetupRepeats; ++i) {
      const bool last = i + 1 == kSetupRepeats;
      opt.seconds = last ? req.seconds : 0.0;
      const PhaseResult p = run_posix_phase(spec, opt);
      setups.push_back(p.setup_s);
      tally_sessions(p, r);
      if (!last) continue;
      posix_end_to_end(p, r);
      posix_facts(spec, p, r);
    }
    r.values["setup_s"] = {lsl::util::median(setups)};
    r.values["peak_rss_mb"] = {peak_rss_mib()};
    return r;
  }
  opt.seconds = req.seconds / 2.0;
  const PhaseResult plain = run_posix_phase(spec, opt);
  opt.traced = true;
  opt.keep_records = true;
  const PhaseResult traced = run_posix_phase(spec, opt);
  tally_sessions(plain, r);
  tally_sessions(traced, r);
  posix_per_layer(traced, r);
  r.values["trace.overhead_ratio"] = {
      ratio(cpu_ms_per_session(traced), cpu_ms_per_session(plain))};
  posix_facts(spec, traced, r);
  r.facts.emplace_back("traced_sessions",
                       std::to_string(traced.sessions.size()));
  r.facts.emplace_back("spans", std::to_string(traced.spans.size()));
  return r;
}

void tally_sim(const SimPhaseResult& p, Result& r) {
  r.attempted += p.attempted;
  r.failed += p.mismatched;
  if (p.mismatched > 0) {
    r.correct = false;
    r.problems.push_back(std::to_string(p.mismatched) +
                         " simulated transfers differ from the reference");
  }
  r.values["fail_ratio"] = {
      ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted))};
}

double sim_cpu_ms_per_run(const SimPhaseResult& p) {
  return ratio(p.cpu_s * 1000.0, static_cast<double>(p.wall_ms.size()));
}

Result run_sim(const RunRequest& req) {
  Result r;
  r.facts.emplace_back("path", "simulated (exp::case1_ucsb_uiuc), no sockets");
  if (!req.trace) {
    std::vector<double> setups;
    SimPhaseResult p;
    for (int i = 0; i < kSetupRepeats; ++i) {
      const bool last = i + 1 == kSetupRepeats;
      SimPhaseResult s = run_sim_phase(req.sim_reference, req.seed,
                                       last ? req.seconds : 0.0, false);
      setups.push_back(s.setup_s);
      tally_sim(s, r);
      if (last) p = std::move(s);
    }
    // Whole passes over the cases, so every unit holds the same work.
    put_rates(r, p.rate);
    put_percentile(r, "session_p50_ms", p.wall_ms, 0.5);
    put_percentile(r, "session_p99_ms", p.wall_ms, 0.99);
    put_percentile(r, "small_p99_ms", p.small_wall_ms, 0.99);
    r.values["cpu_ms_per_session"] = {sim_cpu_ms_per_run(p)};
    r.values["peak_rss_mb"] = {peak_rss_mib()};
    r.values["setup_s"] = {lsl::util::median(setups)};
    return r;
  }
  const SimPhaseResult plain =
      run_sim_phase(req.sim_reference, req.seed, req.seconds / 2.0, false);
  const SimPhaseResult metered =
      run_sim_phase(req.sim_reference, req.seed, req.seconds / 2.0, true);
  tally_sim(plain, r);
  tally_sim(metered, r);
  r.values["sim.direct_ms_per_run"] = {lsl::util::mean(plain.direct_ms)};
  r.values["sim.lsl_ms_per_run"] = {lsl::util::mean(plain.lsl_ms)};
  r.values["trace.overhead_ratio"] = {
      ratio(sim_cpu_ms_per_run(metered), sim_cpu_ms_per_run(plain))};
  return r;
}

}  // namespace

void tally_sessions(const PhaseResult& p, Result& r) {
  const WindowTally& w = p.window;
  r.attempted += w.attempted + p.warmup_attempted;
  r.failed += w.attempted - w.verified + p.warmup_failed;
  if (w.wrong > 0) {
    r.correct = false;
    r.problems.push_back(std::to_string(w.wrong) +
                         " sessions reported done without the sink verifying "
                         "their bytes");
  }
  r.values["fail_ratio"] = {
      ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted))};
}

void posix_end_to_end(const PhaseResult& p, Result& r) {
  put_rates(r, p.window.rate);
  r.values["cpu_ms_per_session"] = {cpu_ms_per_session(p)};
  const std::vector<double> latency = p.window.latency_ms.sample();
  put_percentile(r, "small_p99_ms", p.window.small_latency_ms.sample(), 0.99);
  put_percentile(r, "session_p99_ms", latency, 0.99);
  put_percentile(r, "session_p50_ms", latency, 0.5);
}

Result run_workload(const RunRequest& req) {
  Result r;
  if (req.workload == "sim_crossover") {
    r = run_sim(req);
  } else {
    r = run_posix(req);
  }
  if (req.trace) leaf_metrics(req.seed, r);
  Result facts;
  host_facts(req, facts);
  r.facts.insert(r.facts.begin(), facts.facts.begin(), facts.facts.end());
  return r;
}

}  // namespace lslbench
