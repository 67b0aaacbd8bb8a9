#include "cpp/leaf.hpp"

#include <vector>

#include "buf/pool.hpp"
#include "cpp/clock.hpp"
#include "lsl/payload.hpp"
#include "lsl/wire.hpp"
#include "md5/md5.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace lslbench {

namespace {

constexpr int kBatches = 5;

/// Nanoseconds per unit of `batch`, which does `units` units of work;
/// median over kBatches batches after one untimed warm-up.
template <typename Fn>
double ns_per_unit(std::uint64_t units, Fn&& batch) {
  batch();
  std::vector<double> per_unit;
  for (int i = 0; i < kBatches; ++i) {
    const std::int64_t t0 = now_ns();
    batch();
    per_unit.push_back(static_cast<double>(now_ns() - t0) /
                       static_cast<double>(units));
  }
  return lsl::util::median(per_unit);
}

double mib_per_s(double ns_per_byte) {
  return 1e9 / ns_per_byte / (1024.0 * 1024.0);
}

}  // namespace

LeafTimings time_leaf_layers(std::uint64_t seed) {
  LeafTimings t;
  lsl::util::Rng rng(seed);
  // Observed after each batch so no call can be optimized away.
  volatile std::uint64_t sink = 0;

  constexpr std::size_t kBlock = 64 * 1024;
  constexpr std::uint64_t kBytes = 16ull << 20;
  std::vector<std::uint8_t> block(kBlock);
  lsl::core::PayloadGenerator gen(rng());
  t.payload_mib_per_s = mib_per_s(ns_per_unit(kBytes, [&] {
    for (std::uint64_t done = 0; done < kBytes; done += kBlock) {
      gen.generate(block);
    }
    sink = sink + block[0];
  }));
  t.md5_mib_per_s = mib_per_s(ns_per_unit(kBytes, [&] {
    lsl::md5::Md5 h;
    for (std::uint64_t done = 0; done < kBytes; done += kBlock) {
      h.update(block);
    }
    sink = sink + h.finalize().bytes[0];
  }));

  // The header a measured session carries: one depot hop, digest trailer.
  lsl::core::SessionHeader h;
  std::array<std::uint8_t, 16> id{};
  for (auto& b : id) b = static_cast<std::uint8_t>(rng());
  h.session = lsl::core::SessionId(id);
  h.flags = lsl::core::kFlagDigestTrailer;
  h.payload_length = 4096;
  h.hops = {{0x7f000001u, static_cast<std::uint16_t>(rng())}};
  h.destination = {0x7f000001u, static_cast<std::uint16_t>(rng())};
  constexpr std::uint64_t kHeaders = 100000;
  std::vector<std::uint8_t> wire;
  t.wire_encode_ns = ns_per_unit(kHeaders, [&] {
    for (std::uint64_t i = 0; i < kHeaders; ++i) {
      wire.clear();
      lsl::core::encode_header(h, wire);
    }
    sink = sink + wire.size();
  });
  t.wire_decode_ns = ns_per_unit(kHeaders, [&] {
    for (std::uint64_t i = 0; i < kHeaders; ++i) {
      const auto d = lsl::core::decode_header(wire);
      sink = sink + (d ? d->payload_length : 0);
    }
  });

  lsl::buf::ChunkPool pool(lsl::buf::PoolConfig{});
  constexpr std::uint64_t kChunks = 200000;
  t.pool_acquire_release_ns = ns_per_unit(kChunks, [&] {
    for (std::uint64_t i = 0; i < kChunks; ++i) {
      auto ref = pool.acquire();
      sink = sink + (ref ? 1 : 0);
    }
  });

  constexpr std::uint64_t kEvents = 200000;
  t.event_queue_ns_per_event = ns_per_unit(kEvents, [&] {
    lsl::sim::EventQueue q;
    std::uint64_t fired = 0;
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      q.schedule_in(static_cast<lsl::util::SimDuration>(rng() % 1000000),
                    [&fired] { ++fired; });
    }
    q.run();
    sink = sink + fired;
  });
  return t;
}

}  // namespace lslbench
