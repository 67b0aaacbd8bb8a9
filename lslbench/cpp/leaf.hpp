// Leaf-layer timings on the benchmark's own inputs, outside any workload:
// the per-byte and per-session calls every posix session makes, and the
// simulator's event queue.
#pragma once

#include <cstdint>

namespace lslbench {

struct LeafTimings {
  double md5_mib_per_s = 0.0;      ///< md5::Md5::update
  double payload_mib_per_s = 0.0;  ///< core::PayloadGenerator::generate
  double wire_encode_ns = 0.0;     ///< core::encode_header, one hop
  double wire_decode_ns = 0.0;     ///< core::decode_header, same header
  double pool_acquire_release_ns = 0.0;  ///< buf::ChunkPool round trip
  double event_queue_ns_per_event = 0.0;  ///< sim::EventQueue schedule+run
};

/// Median of five timed batches per call; inputs derive from `seed`.
LeafTimings time_leaf_layers(std::uint64_t seed);

}  // namespace lslbench
