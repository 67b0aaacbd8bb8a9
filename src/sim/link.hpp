// Unidirectional point-to-point link with a drop-tail output queue.
//
// The link models exactly the mechanisms the paper's analysis depends on:
// serialization delay (rate), propagation delay (+ optional jitter),
// finite buffering (drop-tail queue in bytes), and packet loss — either
// i.i.d. Bernoulli (WAN background loss) or a two-state Gilbert–Elliott
// process (bursty 802.11b loss in the wireless case).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/packet.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace lsl::sim {

/// Static configuration of one link direction.
struct LinkConfig {
  util::DataRate rate = util::DataRate::mbps(100);  ///< line rate
  util::SimDuration delay = util::millis(1);        ///< propagation delay
  std::size_t queue_bytes = 256 * util::kKiB;       ///< drop-tail buffer
  double loss_rate = 0.0;            ///< Bernoulli per-packet wire loss
  util::SimDuration jitter = 0;      ///< uniform extra delay in [0, jitter]

  /// Gilbert–Elliott burst-loss model; when enabled, `loss_rate` is ignored.
  bool gilbert_elliott = false;
  double ge_good_to_bad = 0.0;  ///< per-packet P(good -> bad)
  double ge_bad_to_good = 0.0;  ///< per-packet P(bad -> good)
  double ge_loss_good = 0.0;    ///< loss probability in the good state
  double ge_loss_bad = 0.5;     ///< loss probability in the bad state
};

/// Counters exposed for tests and experiment reports.
struct LinkStats {
  std::uint64_t packets_sent = 0;   ///< packets that left the queue
  std::uint64_t bytes_sent = 0;     ///< wire bytes serialized
  std::uint64_t drops_queue = 0;    ///< drop-tail discards
  std::uint64_t drops_wire = 0;     ///< loss-model discards
  std::size_t max_queue_bytes = 0;  ///< high-water mark of queued bytes
};

/// FIFO of packets on a power-of-two ring that only allocates when it
/// grows, so a busy link queues and delivers without touching the heap.
class PacketRing {
 public:
  bool empty() const { return size_ == 0; }
  const Packet& front() const { return slots_[head_]; }

  void push_back(Packet&& p) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(p);
    ++size_;
  }

  Packet pop_front() {
    Packet p = std::move(slots_[head_]);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
    return p;
  }

 private:
  void grow() {
    std::vector<Packet> bigger(std::max<std::size_t>(16, 2 * slots_.size()));
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_.swap(bigger);
    head_ = 0;
  }

  std::vector<Packet> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// One direction of a point-to-point link.
class Link {
 public:
  /// `deliver` is invoked (at the receiving end's simulated time) for every
  /// packet that survives the queue and the wire.
  using DeliverFn = std::function<void(Packet&&)>;

  Link(Simulator& sim, std::string name, const LinkConfig& config,
       DeliverFn deliver);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Enqueue a packet for transmission; drops if the queue is full.
  void send(Packet&& p);

  const LinkConfig& config() const { return config_; }
  const LinkStats& stats() const { return stats_; }
  const std::string& name() const { return name_; }

  /// Bytes currently waiting in the drop-tail queue.
  std::size_t queued_bytes() const { return queued_bytes_; }

  /// Adjust the Bernoulli loss rate mid-run (failure injection).
  void set_loss_rate(double p) { config_.loss_rate = p; }

 private:
  void start_transmission();
  void finish_transmission();
  void deliver_next();
  bool wire_drops(const Packet& p);

  Simulator& sim_;
  std::string name_;
  LinkConfig config_;
  DeliverFn deliver_;
  util::Rng rng_;

  PacketRing queue_;
  /// Packets on the wire, in delivery order. Deliveries never reorder, so
  /// each delivery event just takes the head and captures only `this`.
  PacketRing in_flight_;
  std::size_t queued_bytes_ = 0;
  bool transmitting_ = false;
  bool ge_bad_state_ = false;
  util::SimTime last_delivery_ = 0;  ///< FIFO guard under jitter
  LinkStats stats_;
};

}  // namespace lsl::sim
