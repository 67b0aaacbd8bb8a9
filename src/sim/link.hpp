// Unidirectional point-to-point link with a drop-tail output queue.
//
// The link models exactly the mechanisms the paper's analysis depends on:
// serialization delay (rate), propagation delay (+ optional jitter),
// finite buffering (drop-tail queue in bytes), and packet loss — either
// i.i.d. Bernoulli (WAN background loss) or a two-state Gilbert–Elliott
// process (bursty 802.11b loss in the wireless case).
//
// It is an analytic FIFO link, one event per packet-hop. A FIFO draining
// at a fixed rate knows each packet's departure when it accepts it:
// max(now, busy_until) + transmission time. send() therefore draws the
// packet's loss and jitter at once, in acceptance order (which is the
// order packets leave in), and fixes its arrival at
// max(departure + propagation, previous arrival). No event marks the end
// of serialisation: drop-tail occupancy, queued_bytes() and the stats
// retire departed packets lazily against the current time.
//
// The only event is the delivery. The event-per-departure model scheduled
// it as the packet departed; this link schedules it at or before the
// departure, as late as it can see coming: while an earlier delivery of
// the link will fire by then, the packet waits for that one. A link's
// outstanding events are therefore about its packets in flight, not its
// whole queue. Never scheduling after the departure keeps events that
// fall on the same instant in the old model's order across every figure
// and fault run of scripts/sim_identity.sh; chaining each delivery from
// the previous one (often later than the departure) did not.
//
// A loss-rate change (failure injection) must still reach packets that
// have not departed, since a packet's loss is decided as it leaves.
// set_loss_rate() rewinds the draw state to the first packet not yet
// departed, cancels the deliveries scheduled for packets not yet
// departed, and redraws those packets under the new rate. The state to
// rewind to is replayed from a checkpoint taken at the previous rate
// change, so accepting a packet stores no per-packet RNG snapshot.
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
  const LinkStats& stats() const {
    retire();
    return stats_;
  }
  const std::string& name() const { return name_; }

  /// Bytes currently waiting in the drop-tail queue.
  std::size_t queued_bytes() const {
    retire();
    return queued_bytes_;
  }

  /// Adjust the Bernoulli loss rate mid-run (failure injection). Packets
  /// that have not departed yet draw their loss under the new rate.
  void set_loss_rate(double p);

 private:
  /// One accepted packet, from send() until it is delivered or, if the
  /// wire loses it, until it has departed.
  struct Slot {
    Packet packet;
    util::SimTime depart = 0;      ///< serialisation ends
    util::SimTime deliver_at = 0;  ///< arrival at the far end, if not lost
    EventId delivery = kInvalidEvent;  ///< once scheduled
    std::uint32_t bytes = 0;       ///< wire bytes
    bool lost = false;             ///< the loss model drops it
  };

  /// FIFO of slots on a power-of-two ring that only allocates when it
  /// grows, so a busy link queues and delivers without touching the heap.
  class SlotRing {
   public:
    std::size_t size() const { return size_; }
    Slot& operator[](std::size_t i) { return slots_[wrap(head_ + i)]; }
    const Slot& operator[](std::size_t i) const {
      return slots_[wrap(head_ + i)];
    }

    /// Append a slot and return it; its fields are the caller's to set.
    Slot& push_back() {
      if (size_ == slots_.size()) grow();
      return slots_[wrap(head_ + size_++)];
    }

    Slot pop_front() {
      Slot s = std::move(slots_[head_]);
      head_ = wrap(head_ + 1);
      --size_;
      return s;
    }

   private:
    std::size_t wrap(std::size_t i) const { return i & (slots_.size() - 1); }

    void grow() {
      std::vector<Slot> bigger(std::max<std::size_t>(16, 2 * slots_.size()));
      for (std::size_t i = 0; i < size_; ++i) {
        bigger[i] = std::move((*this)[i]);
      }
      slots_.swap(bigger);
      head_ = 0;
    }

    std::vector<Slot> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  /// Everything a packet's loss and jitter draws read and advance.
  struct DrawState {
    util::Rng rng;
    bool ge_bad = false;  ///< Gilbert–Elliott channel state
  };

  /// Count packets whose serialisation ended at or before now as departed.
  void retire() const;
  /// Free departed packets at the head that the wire lost.
  void pop_departed_losses();
  /// Draw `s`'s loss and arrival time from the live state.
  void draw(Slot& s);
  /// Schedule the deliveries from unscheduled_ on, up to the first packet
  /// that departs after the earliest outstanding delivery fires.
  void schedule_due();
  /// Advance `d` over one packet's draws; true (with its propagation delay
  /// in `prop`) if the packet survives the wire.
  bool survives(DrawState& d, util::SimDuration& prop) const;
  void deliver_next();

  Simulator& sim_;
  std::string name_;
  LinkConfig config_;
  DeliverFn deliver_;

  DrawState live_;        ///< state after the newest packet's draws
  DrawState checkpoint_;  ///< state before packet number checkpoint_seq_
  std::uint64_t checkpoint_seq_ = 0;
  std::uint64_t accepted_ = 0;  ///< packets accepted so far

  util::SimTime busy_until_ = 0;     ///< departure of the newest packet
  util::SimTime last_delivery_ = 0;  ///< FIFO guard under jitter

  SlotRing slots_;  ///< [0, departed_) departed, the rest queued
  /// Slots before this index are lost or have their delivery scheduled.
  std::size_t unscheduled_ = 0;
  // Lazily advanced by retire(), which const readers call too.
  mutable std::size_t departed_ = 0;
  mutable std::size_t queued_bytes_ = 0;
  mutable util::SimTime departed_delivery_ = 0;  ///< last departed arrival
  mutable LinkStats stats_;
};

}  // namespace lsl::sim
