// Micro-benchmarks (google-benchmark) of the core building blocks: MD5
// hashing, the discrete-event queue, a chain of simulated links, the SACK
// interval set, the payload
// generator and verifier, trace analysis, and the PRNG. These bound the
// simulator's own overheads so the figure benches' wall-clock behaviour is
// explainable.
#include <benchmark/benchmark.h>

#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "lsl/payload.hpp"
#include "md5/md5.hpp"
#include "sim/event_queue.hpp"
#include "sim/link.hpp"
#include "sim/simulator.hpp"
#include "trace/analysis.hpp"
#include "util/interval_set.hpp"
#include "util/rng.hpp"

namespace {

void BM_Md5Throughput(benchmark::State& state) {
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(state.range(0)));
  lsl::util::Rng rng(1);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
  for (auto _ : state) {
    lsl::md5::Md5 h;
    h.update(buf);
    auto d = h.finalize();
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Md5Throughput)->Arg(4 << 10)->Arg(64 << 10)->Arg(1 << 20);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  for (auto _ : state) {
    lsl::sim::EventQueue q;
    std::uint64_t sum = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      q.schedule_at(i * 10, [&sum, i] { sum += static_cast<std::uint64_t>(i); });
    }
    q.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_EventQueueCancel(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  for (auto _ : state) {
    lsl::sim::EventQueue q;
    std::vector<lsl::sim::EventId> ids;
    ids.reserve(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      ids.push_back(q.schedule_at(i, [] {}));
    }
    for (auto id : ids) q.cancel(id);
    q.run();
    benchmark::DoNotOptimize(q.executed_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_EventQueueCancel)->Arg(1 << 12)->Arg(1 << 16);

// The TCP RTO pattern: every event (an ACK on one of 64 flows) cancels its
// flow's far-future retransmission timer and re-arms it, so cancelled
// timers pile up unless the queue reclaims them.
class TimerRearm {
 public:
  explicit TimerRearm(std::int64_t acks) : acks_left_(acks) {
    for (std::size_t f = 0; f < timers_.size(); ++f) {
      q_.schedule_in(static_cast<lsl::util::SimDuration>(f),
                     [this, f] { ack(f); });
    }
  }

  std::uint64_t run() {
    q_.run();
    return q_.executed_count();
  }

 private:
  void ack(std::size_t flow) {
    q_.cancel(timers_[flow]);
    timers_[flow] = q_.schedule_in(1000000000, [] {});
    if (--acks_left_ > 0) q_.schedule_in(64, [this, flow] { ack(flow); });
  }

  lsl::sim::EventQueue q_;
  std::array<lsl::sim::EventId, 64> timers_{};
  std::int64_t acks_left_;
};

void BM_EventQueueTimerRearm(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  for (auto _ : state) {
    TimerRearm flows(n);
    benchmark::DoNotOptimize(flows.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_EventQueueTimerRearm)->Arg(1 << 16);

// A saturated 3-hop chain of Links: every packet is queued on the first
// hop at once and each hop forwards to the next at the same line rate, so
// all three stay busy. Items are packet-hops; events_per_packet_hop is the
// number of simulator events each one costs.
void BM_LinkChain(benchmark::State& state) {
  constexpr std::size_t kHops = 3;
  const std::int64_t n = state.range(0);
  lsl::sim::LinkConfig cfg;
  cfg.rate = lsl::util::DataRate::gbps(1);
  cfg.delay = lsl::util::millis(1);
  cfg.queue_bytes = static_cast<std::size_t>(n) * 1600;
  std::uint64_t events = 0;
  for (auto _ : state) {
    lsl::sim::Simulator sim(1);
    std::int64_t arrived = 0;
    std::array<std::unique_ptr<lsl::sim::Link>, kHops> hops;
    for (std::size_t h = kHops; h-- > 0;) {
      lsl::sim::Link* next = h + 1 < kHops ? hops[h + 1].get() : nullptr;
      hops[h] = std::make_unique<lsl::sim::Link>(
          sim, "hop", cfg, [next, &arrived](lsl::sim::Packet&& p) {
            if (next != nullptr) {
              next->send(std::move(p));
            } else {
              ++arrived;
            }
          });
    }
    for (std::int64_t i = 0; i < n; ++i) {
      lsl::sim::Packet p;
      p.payload_bytes = lsl::sim::kDefaultMss;
      hops[0]->send(std::move(p));
    }
    sim.events().run();
    if (arrived != n) state.SkipWithError("packets lost in the chain");
    events += sim.events().executed_count();
  }
  const auto packet_hops =
      static_cast<std::int64_t>(state.iterations()) * n * kHops;
  state.SetItemsProcessed(packet_hops);
  state.counters["events_per_packet_hop"] =
      static_cast<double>(events) / static_cast<double>(packet_hops);
}
BENCHMARK(BM_LinkChain)->Arg(1 << 12);

void BM_IntervalSetSackPattern(benchmark::State& state) {
  // Emulates a SACK scoreboard: scattered inserts then gap scans.
  const std::int64_t n = state.range(0);
  lsl::util::Rng rng(7);
  for (auto _ : state) {
    lsl::util::IntervalSet set;
    for (std::int64_t i = 0; i < n; ++i) {
      const std::uint64_t start = rng.uniform_int(0, 1u << 22);
      set.insert(start, start + 1448);
    }
    std::uint64_t holes = 0;
    std::uint64_t from = 0;
    while (auto gap = set.next_gap(from, 1u << 22)) {
      ++holes;
      from = gap->second;
    }
    benchmark::DoNotOptimize(holes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_IntervalSetSackPattern)->Arg(64)->Arg(1024);

void BM_PayloadGenerator(benchmark::State& state) {
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(state.range(0)));
  lsl::core::PayloadGenerator gen(42);
  for (auto _ : state) {
    gen.generate(buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PayloadGenerator)->Arg(16 << 10)->Arg(256 << 10);

// The sink's per-read work: MD5 plus the content check against the
// generator, fed one socket-read-sized span at a time.
void BM_PayloadVerify(benchmark::State& state) {
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(state.range(0)));
  lsl::core::PayloadGenerator gen(42);
  lsl::core::PayloadVerifier ver(42);
  for (auto _ : state) {
    state.PauseTiming();
    gen.generate(buf);
    state.ResumeTiming();
    benchmark::DoNotOptimize(ver.feed(buf));
  }
  if (!ver.ok()) state.SkipWithError("content check failed");
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PayloadVerify)->Arg(64 << 10);

void BM_Rng(benchmark::State& state) {
  lsl::util::Rng rng(3);
  std::uint64_t acc = 0;
  for (auto _ : state) acc += rng();
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_Rng);

void BM_RttAnalysis(benchmark::State& state) {
  // Build a synthetic trace of n data packets + matching ACKs, then time
  // the ACK-matching RTT derivation (Karn's exclusion included: every 16th
  // segment is retransmitted so the matcher exercises the discard path).
  const std::int64_t n = state.range(0);
  lsl::trace::TraceRecorder rec("synthetic");
  for (std::int64_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) * 1.0;  // 1 ms per segment
    const auto seq = static_cast<std::uint64_t>(i) * 1448;
    lsl::trace::TraceEvent data;
    data.time = lsl::util::millis(t);
    data.outgoing = true;
    data.seq = seq;
    data.payload = 1448;
    data.retransmit = (i % 16) == 15;
    rec.record(data);
    lsl::trace::TraceEvent ack;
    ack.time = lsl::util::millis(t + 30.0);
    ack.outgoing = false;
    ack.flags = lsl::sim::kFlagAck;
    ack.ack = seq + 1448;
    rec.record(ack);
  }
  for (auto _ : state) {
    auto samples = lsl::trace::rtt_samples(rec);
    benchmark::DoNotOptimize(samples.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_RttAnalysis)->Arg(1 << 14);

}  // namespace

BENCHMARK_MAIN();
