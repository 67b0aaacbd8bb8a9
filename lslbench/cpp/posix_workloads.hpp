// The real-socket workloads: a source, one classic Lsd or a ShardedLsd,
// and a sink, each on an event loop of its own, all over loopback.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "buf/pool.hpp"
#include "cpp/loop_thread.hpp"
#include "cpp/stats.hpp"
#include "posix/lsd.hpp"
#include "span/span.hpp"

namespace lslbench {

/// One payload size of a workload's mix; `weight` is its share of the
/// sessions, a multiple of 1/50 (sizes are dealt from a shuffled deck of
/// fifty).
struct SizeClass {
  std::uint64_t bytes = 0;
  double weight = 1.0;
};

/// How a posix workload offers its sessions.
struct TrafficSpec {
  /// Open loop: sessions are due on a seeded Poisson schedule at
  /// `rate_per_s`, and `inflight` caps how many run at once. Closed loop:
  /// exactly `inflight` sessions run at all times.
  bool open_loop = false;
  std::size_t inflight = 4;
  double rate_per_s = 0.0;
  std::vector<SizeClass> classes;
  /// 0 runs one classic Lsd; N >= 1 runs a ShardedLsd with N shards.
  int shards = 0;
  /// Sessions run closed-loop after set-up and before measuring, so pools,
  /// freelists and caches are warm.
  std::size_t warmup_sessions = 0;
};

/// The three posix workloads by name ("small_4k", "bulk_2m",
/// "mixed_open"); throws std::invalid_argument for any other name.
TrafficSpec posix_spec(const std::string& workload, int nproc);

/// Open-loop rate of mixed_open, sessions/s: a sixth to a seventh of the
/// closed-loop capacity of its mix with 4 in flight (1380-1750/s on a
/// 4-CPU host). While a 2 MiB session runs, small sessions sharing its
/// loops slow down several-fold; at higher rates bulk sessions run often
/// enough that the median small session meets one, and the median then
/// swings with the host's speed (1.1-2.1 ms at 500/s, 0.9-1.2 ms at
/// 350/s, 1.1-1.3 ms here, five seeds each).
inline constexpr double kMixedOpenRate = 250.0;

struct PhaseOptions {
  std::uint64_t seed = 1;
  /// Measurement window; 0 builds, warms up and tears down only.
  double seconds = 0.0;
  /// Attach LoopMetrics, LsdMetrics and a span::Tracer, and trace every
  /// session; the untraced phase runs with none of these.
  bool traced = false;
  /// Keep a SessionRecord per measured session (the stage metrics need
  /// them). Off, the window's footprint does not grow with its sessions.
  bool keep_records = false;
  int nproc = 1;
  /// Test seam: the measured session with this index is sent with
  /// PosixSourceConfig::corrupt_one_byte.
  std::uint64_t corrupt_index = std::numeric_limits<std::uint64_t>::max();
};

/// One measured session, from the source's and the sink's side.
struct SessionRecord {
  std::uint64_t bytes = 0;
  std::uint8_t size_class = 0;
  std::uint64_t trace_id = 0;
  std::int64_t due_ns = 0;    ///< when it was scheduled (closed: = start)
  std::int64_t start_ns = 0;  ///< PosixSource::start()
  std::int64_t done_ns = 0;   ///< on_done, 0 if it never fired
  bool source_ok = false;     ///< on_done(true): the sink's status was ok
  bool sink_seen = false;
  bool sink_verified = false;  ///< MD5 and seeded content both matched
  std::uint64_t sink_bytes = 0;
  std::int64_t sink_done_ns = 0;  ///< on_complete, after the verdict
  double sink_seconds = 0.0;      ///< SinkResult::seconds (accept -> verdict)

  /// Verified end to end: the source saw ok and the sink verified exactly
  /// the bytes sent.
  bool verified() const {
    return source_ok && sink_seen && sink_verified && sink_bytes == bytes;
  }
  double latency_ms() const { return (done_ns - due_ns) / 1e6; }
};

/// What the measured window yields in storage sized before it starts, so
/// the harness's footprint is the same whatever the throughput. Latencies
/// and rates are fed when the source reports success; whether the sink
/// verified those bytes is joined in after the window (a session the
/// source called done but the sink did not verify makes the run wrong).
struct WindowTally {
  explicit WindowTally(std::uint64_t seed);

  std::uint64_t attempted = 0;
  std::uint64_t verified = 0;  ///< source ok and sink verified the bytes
  std::uint64_t wrong = 0;     ///< source ok, sink did not verify
  Reservoir latency_ms;        ///< due -> source done, every class
  Reservoir small_latency_ms;  ///< the first size class only
  Reservoir late_ms;           ///< open loop: start - due
  BlockRate rate;              ///< sessions and payload bytes
};

/// Everything one phase measured.
struct PhaseResult {
  explicit PhaseResult(std::uint64_t seed) : window(seed) {}

  /// Process CPU seconds (every thread) to build the topology and run the
  /// warm-up sessions.
  double setup_s = 0.0;
  WindowTally window;
  std::vector<SessionRecord> sessions;  ///< PhaseOptions::keep_records
  std::uint64_t warmup_attempted = 0;
  std::uint64_t warmup_failed = 0;
  double wall_s = 0.0;  ///< window start -> last measured session done
  double cpu_s = 0.0;   ///< process user+sys over the same span
  std::uint64_t cap_hits = 0;  ///< arrivals that found the in-flight cap
  int threads = 0;             ///< role threads, the driving one included
  // Per-role loop load over the window (traced phase only).
  LoopSnapshot source;
  LoopSnapshot sink;
  LoopSnapshot depot;  ///< summed over shards
  int depot_threads = 1;
  double depot_dispatch_p99_ms = 0.0;  ///< worst shard
  // Depot and pool counters over the window.
  lsl::posix::LsdStats lsd;
  std::vector<std::uint64_t> shard_accepted;
  lsl::buf::PoolStats pool;  ///< allocs/reuses/failures: window deltas
  std::uint64_t pool_peak_bytes = 0;
  std::vector<lsl::span::SpanRecord> spans;  ///< traced phase only
};

/// Build the workload's topology, warm it up, measure for
/// `options.seconds`, drain and tear down.
PhaseResult run_posix_phase(const TrafficSpec& spec,
                            const PhaseOptions& options);

}  // namespace lslbench
