#include "cpp/posix_workloads.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "cpp/clock.hpp"
#include "engine/timer.hpp"
#include "lsl/session_id.hpp"
#include "posix/client.hpp"
#include "posix/sharded_lsd.hpp"
#include "util/rng.hpp"

namespace lslbench {

namespace posix = lsl::posix;
using lsl::engine::EngineTimer;

namespace {

/// Warm-up sessions are numbered from here, so the sink's verdicts on them
/// are never joined with measured sessions.
constexpr std::uint64_t kWarmupBase = 1ull << 40;
/// How long in-flight sessions may take to finish after the window closes
/// before they are abandoned (and counted as failed).
constexpr std::int64_t kDrainLimitNs = 30'000'000'000;
/// Sessions per shuffled deck of payload sizes.
constexpr double kDeckSize = 50.0;
/// Flight-recorder slots for a traced phase: about four spans per small
/// session; the ring keeps the most recent when a phase records more.
constexpr std::size_t kTraceCapacity = std::size_t{1} << 19;
/// Latency samples a window keeps (a uniform sample beyond that).
constexpr std::size_t kReservoirSamples = std::size_t{1} << 15;
/// The per-session verdict bits are sized for this rate before a window
/// starts; only a faster run grows them.
constexpr double kPresizedSessionsPerS = 100000.0;

std::uint64_t payload_seed_for(std::uint64_t seed) {
  return lsl::util::Rng(seed ^ 0x6c736c62656e6368ull)();
}

/// Session ids carry (payload bytes, index): the sink checks the byte
/// count it verified against the one sent, and its verdicts join back to
/// the source's side without a lookup table.
lsl::core::SessionId session_for(std::uint64_t bytes, std::uint64_t index) {
  std::array<std::uint8_t, 16> b{};
  for (int i = 0; i < 8; ++i) {
    b[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bytes >> (56 - 8 * i));
    b[static_cast<std::size_t>(8 + i)] =
        static_cast<std::uint8_t>(index >> (56 - 8 * i));
  }
  return lsl::core::SessionId(b);
}

std::uint64_t id_field(const lsl::core::SessionId& id, std::size_t from) {
  std::uint64_t v = 0;
  for (std::size_t i = from; i < from + 8; ++i) v = (v << 8) | id.bytes()[i];
  return v;
}

/// One bit per measured session index, allocated and written up front.
class SessionBits {
 public:
  explicit SessionBits(double seconds)
      : words_(static_cast<std::size_t>(seconds * kPresizedSessionsPerS) / 64 +
               1) {}

  void set(std::uint64_t i) {
    const std::size_t w = static_cast<std::size_t>(i / 64);
    if (w >= words_.size()) words_.resize(2 * w + 1);
    words_[w] |= std::uint64_t{1} << (i % 64);
  }
  bool test(std::uint64_t i) const {
    const std::size_t w = static_cast<std::size_t>(i / 64);
    return w < words_.size() && (words_[w] >> (i % 64) & 1) != 0;
  }

 private:
  std::vector<std::uint64_t> words_;
};

/// A verdict as the sink saw it.
struct SinkRecord {
  std::uint64_t index = 0;
  bool verified = false;
  std::uint64_t bytes = 0;
  std::int64_t done_ns = 0;
  double seconds = 0.0;
};

/// Source loop (driven by the calling thread), depot(s) and sink, wired
/// over loopback. The destructor stops every thread before the objects
/// registered with their loops are destroyed.
class Topology {
 public:
  Topology(const TrafficSpec& spec, const PhaseOptions& opt)
      : keep_records_(opt.keep_records), sink_verified_(opt.seconds) {
    if (opt.traced) {
      tracer_ = std::make_unique<lsl::span::Tracer>("lslbench.depot",
                                                     kTraceCapacity);
    }
    const int depot_threads = spec.shards > 0 ? spec.shards : 1;
    source_ = std::make_unique<LoopThread>("loop.source", opt.traced);
    // Every role gets a thread of its own while the host has a CPU for
    // it; otherwise the sink shares the source's loop.
    const bool sink_thread = opt.nproc >= depot_threads + 2;
    threads_ = depot_threads + (sink_thread ? 2 : 1);
    if (sink_thread) {
      sink_owned_ = std::make_unique<LoopThread>("loop.sink", opt.traced);
    }
    sink_ = sink_thread ? sink_owned_.get() : source_.get();

    sink_server_ = std::make_unique<posix::PosixSinkServer>(
        sink_->loop(), posix::InetAddress::loopback(0), true,
        payload_seed_for(opt.seed));
    sink_server_->on_complete = [this](const posix::SinkResult& r) {
      if (!r.header) return;
      const std::uint64_t index = id_field(r.header->session, 8);
      if (index >= kWarmupBase) return;
      if (r.verified && r.payload_bytes == id_field(r.header->session, 0)) {
        sink_verified_.set(index);
      }
      if (keep_records_) {
        sink_records_.push_back(
            {index, r.verified, r.payload_bytes, now_ns(), r.seconds});
      }
    };

    if (spec.shards > 0) {
      posix::ShardedLsdConfig cfg;
      cfg.shards = spec.shards;
      if (opt.traced) {
        cfg.registry = &registry_;
        cfg.tracer = tracer_.get();
      }
      sharded_ = std::make_unique<posix::ShardedLsd>(cfg);
      depot_port_ = sharded_->port();
    } else {
      depot_ = std::make_unique<LoopThread>("loop.depot", opt.traced);
      lsd_ = std::make_unique<posix::Lsd>(depot_->loop(), posix::LsdConfig{});
      lsd_->set_tracer(tracer_.get());
      depot_port_ = lsd_->port();
    }
    if (sink_owned_) sink_owned_->start();
    if (depot_) depot_->start();
  }

  ~Topology() { stop(); }

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  LoopThread& source() { return *source_; }
  std::uint16_t depot_port() const { return depot_port_; }
  std::uint16_t sink_port() const { return sink_server_->port(); }
  int threads() const { return threads_; }
  int depot_threads() const { return sharded_ ? sharded_->shard_count() : 1; }

  posix::LsdStats lsd_stats() {
    if (sharded_) return sharded_->stats();
    posix::LsdStats s;
    depot_->call([&] { s = lsd_->stats(); });
    return s;
  }

  std::vector<std::uint64_t> shard_accepted() const {
    std::vector<std::uint64_t> out;
    if (!sharded_) return out;
    for (int i = 0; i < sharded_->shard_count(); ++i) {
      out.push_back(sharded_->shard_stats(i).sessions_accepted);
    }
    return out;
  }

  lsl::buf::PoolStats pool_stats() const {
    return sharded_ ? sharded_->pool_stats() : lsd_->pool().stats();
  }

  std::uint64_t pool_peak_bytes() const {
    return sharded_ ? sharded_->budget().peak()
                    : lsd_->pool().stats().peak_bytes;
  }

  LoopSnapshot source_load() const {
    return snapshot_loop(source_->registry(), source_->prefix());
  }
  LoopSnapshot sink_load() const {
    return snapshot_loop(sink_->registry(), sink_->prefix());
  }
  LoopSnapshot depot_load() const {
    if (!sharded_) return snapshot_loop(depot_->registry(), depot_->prefix());
    LoopSnapshot sum;
    for (int i = 0; i < sharded_->shard_count(); ++i) {
      const LoopSnapshot s =
          snapshot_loop(registry_, "loop.shard" + std::to_string(i));
      sum.iterations += s.iterations;
      sum.events += s.events;
      sum.busy_ms += s.busy_ms;
    }
    return sum;
  }
  double depot_dispatch_p99() const {
    if (!sharded_) return dispatch_p99_ms(depot_->registry(), depot_->prefix());
    double worst = 0.0;
    for (int i = 0; i < sharded_->shard_count(); ++i) {
      const std::string prefix = "loop.shard" + std::to_string(i);
      worst = std::max(worst, dispatch_p99_ms(registry_, prefix));
    }
    return worst;
  }

  /// Stop every role thread (the shards included); afterwards the sink's
  /// verdicts and the spans may be read.
  void stop() {
    if (sink_owned_) sink_owned_->stop();
    if (depot_) depot_->stop();
    sharded_.reset();
  }

  const std::vector<SinkRecord>& sink_records() const { return sink_records_; }
  /// Measured sessions whose exact bytes the sink verified.
  const SessionBits& sink_verified() const { return sink_verified_; }

  std::vector<lsl::span::SpanRecord> spans() const {
    std::vector<lsl::span::SpanRecord> out;
    if (tracer_) tracer_->recorder().snapshot(out);
    return out;
  }

 private:
  // Declaration order is teardown order reversed: the tracer and the
  // registry outlive the daemons that write to them, and every loop
  // outlives the objects registered with it.
  std::unique_ptr<lsl::span::Tracer> tracer_;
  lsl::metrics::Registry registry_;
  std::unique_ptr<LoopThread> source_;
  std::unique_ptr<LoopThread> sink_owned_;
  std::unique_ptr<LoopThread> depot_;
  LoopThread* sink_ = nullptr;
  int threads_ = 0;
  // Written on the sink's thread only, until stop().
  bool keep_records_;
  SessionBits sink_verified_;
  std::vector<SinkRecord> sink_records_;
  std::unique_ptr<posix::PosixSinkServer> sink_server_;
  std::unique_ptr<posix::Lsd> lsd_;
  std::unique_ptr<posix::ShardedLsd> sharded_;
  std::uint16_t depot_port_ = 0;
};

/// Offers sessions from the calling thread, on the source's loop.
class SessionGenerator {
 public:
  /// `tally`: the measured window's accumulators; null while warming up.
  SessionGenerator(Topology& topo, const TrafficSpec& spec,
                   const PhaseOptions& opt, std::uint64_t index_base,
                   std::uint64_t rng_stream, WindowTally* tally)
      : topo_(topo),
        spec_(spec),
        opt_(opt),
        index_base_(index_base),
        tally_(tally),
        rng_(opt.seed * 0x9e3779b97f4a7c15ull + rng_stream),
        payload_seed_(payload_seed_for(opt.seed)),
        timer_(topo.source().loop(), [] {}),
        source_ok_(tally != nullptr ? opt.seconds : 0.0) {}

  ~SessionGenerator() {
    // Abandoned sessions (past the drain limit) stay counted as failed.
    active_.clear();
    graveyard_.clear();
  }

  SessionGenerator(const SessionGenerator&) = delete;
  SessionGenerator& operator=(const SessionGenerator&) = delete;

  /// Keep spec.inflight sessions running until `count` have been launched
  /// or `end_ns` passes, then wait for the ones in flight.
  void run_closed(std::uint64_t count, std::int64_t end_ns) {
    while (true) {
      const std::int64_t now = now_ns();
      bool open = launched_ < count && now < end_ns;
      while (open && active_.size() < spec_.inflight) {
        launch(pick_class(), std::nullopt);
        open = launched_ < count;
      }
      if (!open && active_.empty()) break;
      if (now > end_ns + kDrainLimitNs) break;
      timer_.arm(open ? end_ns : end_ns + kDrainLimitNs);
      turn();
    }
  }

  /// Launch sessions on a seeded Poisson schedule from `t0` until
  /// `end_ns`, at most spec.inflight at once; each is timed from its due
  /// time, so waiting behind the cap counts against it.
  void run_open(std::int64_t t0, std::int64_t end_ns) {
    const double mean_gap_ns = 1e9 / spec_.rate_per_s;
    std::int64_t next_due =
        t0 + static_cast<std::int64_t>(rng_.exponential(mean_gap_ns));
    std::size_t next_class = pick_class();
    bool counted = false;
    while (true) {
      const std::int64_t now = now_ns();
      while (next_due < end_ns && next_due <= now) {
        if (active_.size() >= spec_.inflight) {
          if (!counted) ++cap_hits_;
          counted = true;
          break;
        }
        if (tally_ != nullptr) tally_->late_ms.add((now - next_due) / 1e6);
        launch(next_class, next_due);
        next_due += static_cast<std::int64_t>(rng_.exponential(mean_gap_ns));
        next_class = pick_class();
        counted = false;
      }
      const bool pending = next_due < end_ns;
      if (!pending && active_.empty()) break;
      if (now > end_ns + kDrainLimitNs) break;
      timer_.arm(pending && active_.size() < spec_.inflight
                     ? next_due
                     : end_ns + kDrainLimitNs);
      turn();
    }
  }

  std::uint64_t launched() const { return launched_; }
  std::uint64_t failed() const { return launched_ - succeeded_; }
  std::uint64_t cap_hits() const { return cap_hits_; }
  std::int64_t last_done_ns() const { return last_done_ns_; }
  std::vector<SessionRecord>& records() { return records_; }

  /// After the sink has stopped: count the sessions the source called
  /// done by whether the sink verified their bytes, and copy the sink's
  /// verdicts onto the records they belong to.
  void join(const Topology& topo) {
    for (std::uint64_t i = 0; i < launched_; ++i) {
      if (!source_ok_.test(i)) continue;
      ++(topo.sink_verified().test(i) ? tally_->verified : tally_->wrong);
    }
    for (const SinkRecord& s : topo.sink_records()) {
      if (s.index >= records_.size()) continue;
      SessionRecord& r = records_[s.index];
      r.sink_seen = true;
      r.sink_verified = s.verified;
      r.sink_bytes = s.bytes;
      r.sink_done_ns = s.done_ns;
      r.sink_seconds = s.seconds;
    }
  }

 private:
  /// What the generator knows of a session while it runs.
  struct InFlight {
    std::unique_ptr<posix::PosixSource> source;
    std::uint64_t bytes = 0;
    std::size_t size_class = 0;
    std::int64_t due_ns = 0;
  };

  /// Sizes come from a shuffled deck holding each class in proportion to
  /// its weight, so every run offers the same mix, only in another order.
  std::size_t pick_class() {
    if (deck_.empty()) {
      for (std::size_t i = 0; i < spec_.classes.size(); ++i) {
        const auto copies = static_cast<std::size_t>(
            spec_.classes[i].weight * kDeckSize + 0.5);
        deck_.insert(deck_.end(), copies, i);
      }
      std::shuffle(deck_.begin(), deck_.end(), rng_);
    }
    const std::size_t cls = deck_.back();
    deck_.pop_back();
    return cls;
  }

  /// `due`: the open-loop schedule slot; closed-loop sessions are due
  /// when they start.
  void launch(std::size_t cls, std::optional<std::int64_t> due) {
    const std::uint64_t local = launched_++;
    const std::uint64_t index = index_base_ + local;
    InFlight f;
    f.bytes = spec_.classes[cls].bytes;
    f.size_class = cls;
    std::uint64_t trace_id = 0;
    if (opt_.traced) {
      trace_id = lsl::span::mint_trace_id(opt_.seed * 1000003 + index);
    }

    posix::PosixSourceConfig cfg;
    cfg.route = {posix::InetAddress::loopback(topo_.depot_port())};
    cfg.destination = posix::InetAddress::loopback(topo_.sink_port());
    cfg.payload_bytes = f.bytes;
    cfg.payload_seed = payload_seed_;
    cfg.session = session_for(f.bytes, index);
    cfg.trace_id = trace_id;
    cfg.corrupt_one_byte = tally_ != nullptr && local == opt_.corrupt_index;
    f.source = std::make_unique<posix::PosixSource>(topo_.source().loop(),
                                                    std::move(cfg));
    f.source->on_done = [this, local](bool ok) { finish(local, ok); };
    const std::int64_t start = now_ns();
    f.due_ns = due.value_or(start);
    if (keep_records()) {
      SessionRecord rec;
      rec.bytes = f.bytes;
      rec.size_class = static_cast<std::uint8_t>(cls);
      rec.trace_id = trace_id;
      rec.due_ns = f.due_ns;
      rec.start_ns = start;
      records_.push_back(rec);
    }
    posix::PosixSource* raw = f.source.get();
    active_.emplace(local, std::move(f));
    raw->start();
  }

  void finish(std::uint64_t local, bool ok) {
    const std::int64_t now = now_ns();
    auto it = active_.find(local);
    const InFlight& f = it->second;
    if (ok) {
      ++succeeded_;
      last_done_ns_ = now;
      if (tally_ != nullptr) {
        source_ok_.set(local);
        const double ms = (now - f.due_ns) / 1e6;
        tally_->latency_ms.add(ms);
        if (f.size_class == 0) tally_->small_latency_ms.add(ms);
        tally_->rate.add(now, 1.0, static_cast<double>(f.bytes));
      }
    }
    if (keep_records()) {
      records_[local].done_ns = now;
      records_[local].source_ok = ok;
    }
    graveyard_.push_back(std::move(it->second.source));
    active_.erase(it);
  }

  bool keep_records() const { return tally_ != nullptr && opt_.keep_records; }

  void turn() {
    topo_.source().loop().run_once(-1);
    graveyard_.clear();
  }

  Topology& topo_;
  const TrafficSpec& spec_;
  const PhaseOptions& opt_;
  std::uint64_t index_base_;
  WindowTally* tally_;
  lsl::util::Rng rng_;
  std::uint64_t payload_seed_;
  std::vector<std::size_t> deck_;
  EngineTimer timer_;
  std::uint64_t launched_ = 0;
  std::uint64_t succeeded_ = 0;
  std::int64_t last_done_ns_ = 0;
  SessionBits source_ok_;
  std::vector<SessionRecord> records_;
  std::unordered_map<std::uint64_t, InFlight> active_;
  /// Sources finished during the current turn; a source may not be
  /// destroyed inside its own on_done.
  std::vector<std::unique_ptr<posix::PosixSource>> graveyard_;
  std::uint64_t cap_hits_ = 0;
};

LoopSnapshot minus(const LoopSnapshot& a, const LoopSnapshot& b) {
  return {a.iterations - b.iterations, a.events - b.events,
          a.busy_ms - b.busy_ms};
}

/// The window's share of the LsdStats fields the report reads.
posix::LsdStats minus(const posix::LsdStats& a, const posix::LsdStats& b) {
  posix::LsdStats d = a;
  d.sessions_accepted -= b.sessions_accepted;
  d.sessions_completed -= b.sessions_completed;
  d.sessions_failed -= b.sessions_failed;
  d.sessions_refused -= b.sessions_refused;
  d.bytes_relayed -= b.bytes_relayed;
  d.bytes_spliced -= b.bytes_spliced;
  return d;
}

}  // namespace

TrafficSpec posix_spec(const std::string& workload, int nproc) {
  TrafficSpec s;
  if (workload == "small_4k") {
    s.inflight = 4;
    s.classes = {{4096, 1.0}};
    s.warmup_sessions = 400;
  } else if (workload == "bulk_2m") {
    s.inflight = 4;
    s.classes = {{2u << 20, 1.0}};
    s.warmup_sessions = 16;
  } else if (workload == "mixed_open") {
    s.open_loop = true;
    s.inflight = static_cast<std::size_t>(std::max(nproc, 1));
    s.rate_per_s = kMixedOpenRate;
    s.classes = {{4096, 0.80}, {64u << 10, 0.18}, {2u << 20, 0.02}};
    s.shards = 2;
    s.warmup_sessions = 200;
  } else {
    throw std::invalid_argument("unknown posix workload: " + workload);
  }
  return s;
}

WindowTally::WindowTally(std::uint64_t seed)
    : latency_ms(kReservoirSamples, seed ^ 1),
      small_latency_ms(kReservoirSamples, seed ^ 2),
      late_ms(kReservoirSamples, seed ^ 3) {}

PhaseResult run_posix_phase(const TrafficSpec& spec,
                            const PhaseOptions& opt) {
  PhaseResult out(opt.seed);
  const double setup0 = cpu_seconds();
  Topology topo(spec, opt);
  out.threads = topo.threads();
  out.depot_threads = topo.depot_threads();
  {
    SessionGenerator warm(topo, spec, opt, kWarmupBase, 1, nullptr);
    warm.run_closed(spec.warmup_sessions, now_ns() + kDrainLimitNs);
    out.warmup_attempted = warm.launched();
    out.warmup_failed = warm.failed();
  }
  out.setup_s = cpu_seconds() - setup0;
  if (opt.seconds <= 0.0) return out;

  const LoopSnapshot source0 = topo.source_load();
  const LoopSnapshot sink0 = topo.sink_load();
  const LoopSnapshot depot0 = topo.depot_load();
  const posix::LsdStats lsd0 = topo.lsd_stats();
  const std::vector<std::uint64_t> accepted0 = topo.shard_accepted();
  const lsl::buf::PoolStats pool0 = topo.pool_stats();

  SessionGenerator gen(topo, spec, opt, 0, 2, &out.window);
  const double cpu0 = cpu_seconds();
  const std::int64_t t0 = now_ns();
  out.window.rate.start(t0);
  const auto end = t0 + static_cast<std::int64_t>(opt.seconds * 1e9);
  if (spec.open_loop) {
    gen.run_open(t0, end);
  } else {
    gen.run_closed(std::numeric_limits<std::uint64_t>::max(), end);
  }
  out.cpu_s = cpu_seconds() - cpu0;
  out.wall_s = (std::max(gen.last_done_ns(), t0) - t0) / 1e9;

  out.source = minus(topo.source_load(), source0);
  out.sink = minus(topo.sink_load(), sink0);
  out.depot = minus(topo.depot_load(), depot0);
  out.depot_dispatch_p99_ms = topo.depot_dispatch_p99();
  out.lsd = minus(topo.lsd_stats(), lsd0);
  out.shard_accepted = topo.shard_accepted();
  for (std::size_t i = 0; i < accepted0.size(); ++i) {
    out.shard_accepted[i] -= accepted0[i];
  }
  const lsl::buf::PoolStats pool1 = topo.pool_stats();
  out.pool = pool1;
  out.pool.allocs -= pool0.allocs;
  out.pool.reuses -= pool0.reuses;
  out.pool.creations -= pool0.creations;
  out.pool.failures -= pool0.failures;
  out.pool_peak_bytes = topo.pool_peak_bytes();
  out.cap_hits = gen.cap_hits();

  topo.stop();
  out.window.attempted = gen.launched();
  gen.join(topo);
  out.sessions = std::move(gen.records());
  out.spans = topo.spans();
  return out;
}

}  // namespace lslbench
