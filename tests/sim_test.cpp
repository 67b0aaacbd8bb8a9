// Unit tests of the discrete-event simulator: event queue semantics, link
// timing/loss/queueing, routing, and the cross-traffic generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/cross_traffic.hpp"
#include "sim/event_queue.hpp"
#include "sim/link.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace lsl::sim {
namespace {

using util::kMicrosecond;
using util::kMillisecond;
using util::kSecond;

// --- event queue -------------------------------------------------------------

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  // Free five slots in a scrambled order first, so the tied events below
  // reuse them out of slot order: only the insertion sequence in the ids'
  // high bits can then put them in order.
  std::vector<EventId> scratch;
  for (int i = 0; i < 5; ++i) scratch.push_back(q.schedule_at(50, [] {}));
  for (const std::size_t i : {2u, 0u, 4u, 1u, 3u}) q.cancel(scratch[i]);

  std::vector<int> order;
  std::vector<std::uint64_t> slots;
  for (int i = 0; i < 5; ++i) {
    const EventId id = q.schedule_at(100, [&order, i] { order.push_back(i); });
    slots.push_back(id & ((std::uint64_t{1} << 24) - 1));
  }
  ASSERT_FALSE(std::is_sorted(slots.begin(), slots.end()));
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  int fired = 0;
  const EventId a = q.schedule_at(10, [&] { ++fired; });
  q.schedule_at(20, [&] { ++fired; });
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.run();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelAfterFireIsNoOp) {
  EventQueue q;
  const EventId a = q.schedule_at(1, [] {});
  q.schedule_at(2, [] {});
  q.step();     // fires a
  q.cancel(a);  // must not disturb accounting
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.step());
  EXPECT_FALSE(q.step());
}

TEST(EventQueue, CancelInvalidIdIsNoOp) {
  EventQueue q;
  q.cancel(kInvalidEvent);
  q.cancel(9999);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RunUntilStopsAtDeadline) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(10, [&] { ++fired; });
  q.schedule_at(20, [&] { ++fired; });
  q.schedule_at(30, [&] { ++fired; });
  q.run_until(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), 20);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, EventsScheduledDuringRunExecute) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(10, [&] {
    q.schedule_in(5, [&] { ++fired; });
  });
  q.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 15);
}

TEST(EventQueue, PastScheduleClampsToNow) {
  EventQueue q;
  q.schedule_at(100, [&] {
    // Scheduling "in the past" must not rewind time.
    q.schedule_at(1, [&] { EXPECT_EQ(q.now(), 100); });
  });
  q.run();
}

TEST(EventQueue, RunUntilDoesNotRunPastDeadlineBehindCancelledHead) {
  EventQueue q;
  int fired = 0;
  const EventId head = q.schedule_at(10, [&] { ++fired; });
  q.schedule_at(30, [&] { ++fired; });
  q.cancel(head);
  q.run_until(20);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(q.now(), 20);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, StaleIdDoesNotCancelTheSlotsNextEvent) {
  EventQueue q;
  int fired = 0;
  const EventId first = q.schedule_at(10, [&] { ++fired; });
  ASSERT_TRUE(q.step());
  // The freed slot is reused; the old id must not reach the new event.
  const EventId second = q.schedule_at(20, [&] { ++fired; });
  EXPECT_NE(first, second);
  q.cancel(first);
  EXPECT_EQ(q.size(), 1u);
  q.run();
  EXPECT_EQ(fired, 2);
}

// Differential test: seeded random interleavings of every public operation,
// checked against a std::map ordered by (time, schedule order).
class EventQueueDifferential {
 public:
  explicit EventQueueDifferential(std::uint64_t seed) : rng_(seed) {}

  void run_random_phase(int ops) {
    for (int i = 0; i < ops && !::testing::Test::HasFailure(); ++i) {
      const std::uint64_t r = rng_.uniform_int(0, 99);
      if (r < 35) {
        schedule(q_.now() + offset(), /*relative=*/false);
      } else if (r < 55) {
        schedule(offset(), /*relative=*/true);
      } else if (r < 75) {
        cancel(pick_id());
      } else if (r < 90) {
        step();
      } else {
        run_until(q_.now() +
                  static_cast<util::SimTime>(rng_.uniform_int(0, 200)));
      }
      check_state();
    }
  }

  /// Far-future timers re-armed over and over, the TCP RTO pattern: the
  /// tombstones come to outnumber the live keys many times over.
  void run_cancel_heavy_phase(int timers, int rounds) {
    std::vector<EventId> armed;
    for (int i = 0; i < timers; ++i) {
      armed.push_back(schedule(q_.now() + 1000000 + i, /*relative=*/false));
    }
    for (int round = 0; round < rounds && !::testing::Test::HasFailure();
         ++round) {
      for (EventId& id : armed) {
        cancel(id);
        id = schedule(q_.now() + 1000000 + offset(), /*relative=*/false);
      }
      for (int i = 0; i < timers / 4; ++i) cancel(pick_id());
      schedule(offset(), /*relative=*/true);
      step();
      check_state();
    }
  }

  void drain() {
    deadline_ = std::numeric_limits<util::SimTime>::max();
    q_.run();
    EXPECT_TRUE(model_.empty());
    check_state();
  }

  std::uint64_t fired() const { return executed_; }

 private:
  struct Pending {
    int tag;
    EventId id;
  };
  using Key = std::pair<util::SimTime, std::uint64_t>;

  util::SimDuration offset() {
    // Small range: plenty of equal times, and some "past" requests.
    return static_cast<util::SimDuration>(rng_.uniform_int(0, 320)) - 20;
  }

  EventId schedule(util::SimTime t, bool relative) {
    const int tag = next_tag_++;
    auto cb = [this, tag] { on_fire(tag); };
    const EventId id = relative ? q_.schedule_in(t, cb) : q_.schedule_at(t, cb);
    const util::SimTime at = std::max(relative ? now_ + t : t, now_);
    EXPECT_NE(id, kInvalidEvent);
    EXPECT_TRUE(issued_set_.insert(id).second) << "id reissued: " << id;
    const Key key{at, next_seq_++};
    model_[key] = Pending{tag, id};
    key_of_[id] = key;
    issued_.push_back(id);
    return id;
  }

  void cancel(EventId id) {
    q_.cancel(id);
    const auto it = key_of_.find(id);
    if (it == key_of_.end()) return;
    model_.erase(it->second);
    key_of_.erase(it);
  }

  EventId pick_id() {
    const std::uint64_t r = rng_.uniform_int(0, 9);
    if (r == 0 || issued_.empty()) return kInvalidEvent;
    if (r == 1) {
      // Never issued: a sequence beyond every id handed out so far.
      return ((next_seq_ + rng_.uniform_int(1, 1000)) << 24) |
             rng_.uniform_int(0, 63);
    }
    if (r == 2) return rng_.uniform_int(1, 63);  // sequence 0, never issued
    // Pending, fired or cancelled; stale ids after slot reuse included.
    return issued_[rng_.uniform_int(0, issued_.size() - 1)];
  }

  void step() {
    deadline_ = std::numeric_limits<util::SimTime>::max();
    const bool expected = !model_.empty();
    EXPECT_EQ(q_.step(), expected);
  }

  void run_until(util::SimTime deadline) {
    deadline_ = deadline;
    q_.run_until(deadline);
    if (!model_.empty()) {
      EXPECT_GT(model_.begin()->first.first, deadline);
    }
    now_ = std::max(now_, deadline);
  }

  void on_fire(int tag) {
    // The model fires its earliest event; the queue must have chosen it.
    ASSERT_FALSE(model_.empty()) << "fired tag " << tag << " unexpectedly";
    const auto head = model_.begin();
    EXPECT_EQ(head->second.tag, tag);
    EXPECT_EQ(head->first.first, q_.now());
    EXPECT_LE(q_.now(), deadline_);
    now_ = head->first.first;
    key_of_.erase(head->second.id);
    model_.erase(head);
    ++executed_;
    EXPECT_EQ(q_.executed_count(), executed_);
    EXPECT_EQ(q_.size(), model_.size());
    // Re-entrant work from inside a callback: schedule (growing the slab
    // when the free list runs dry) and cancel, own id included. Fewer than
    // one child per firing on average, so draining terminates.
    if (tag % 5 == 0) {
      for (int i = 0; i < 2; ++i) schedule(offset(), /*relative=*/true);
      cancel(pick_id());
    }
    if (tag % 251 == 0) {
      for (int i = 0; i < 32; ++i) schedule(q_.now() + offset(), false);
    }
    if (tag % 7 == 0) cancel(issued_.back());
  }

  void check_state() {
    EXPECT_EQ(q_.now(), now_);
    EXPECT_EQ(q_.size(), model_.size());
    EXPECT_EQ(q_.empty(), model_.empty());
    EXPECT_EQ(q_.executed_count(), executed_);
  }

  EventQueue q_;
  util::Rng rng_;
  std::map<Key, Pending> model_;
  std::map<EventId, Key> key_of_;
  std::vector<EventId> issued_;
  std::unordered_set<EventId> issued_set_;
  util::SimTime now_ = 0;
  util::SimTime deadline_ = std::numeric_limits<util::SimTime>::max();
  std::uint64_t executed_ = 0;
  std::uint64_t next_seq_ = 1;
  int next_tag_ = 0;
};

TEST(EventQueue, MatchesReferenceModelUnderRandomInterleavings) {
  for (std::uint64_t seed = 1; seed <= 8 && !HasFailure(); ++seed) {
    SCOPED_TRACE(seed);
    EventQueueDifferential d(seed);
    d.run_random_phase(4000);
    d.run_cancel_heavy_phase(/*timers=*/200, /*rounds=*/50);
    d.run_random_phase(2000);
    d.drain();
    EXPECT_GT(d.fired(), 1000u);
  }
}

// --- link --------------------------------------------------------------------

Packet make_packet(NodeId src, NodeId dst, std::uint32_t payload) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.proto = Protocol::kUdp;
  p.payload_bytes = payload;
  return p;
}

TEST(Link, SerializationPlusPropagationTiming) {
  Simulator sim(1);
  std::vector<util::SimTime> arrivals;
  LinkConfig cfg;
  cfg.rate = util::DataRate::mbps(8);  // 1 us per byte
  cfg.delay = kMillisecond;
  Link link(sim, "l", cfg, [&](Packet&&) { arrivals.push_back(sim.now()); });

  link.send(make_packet(0, 1, 972));  // +28 UDP/IP header = 1000 bytes
  sim.events().run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], 1000 * kMicrosecond + kMillisecond);
}

TEST(Link, BackToBackPacketsQueueBehindEachOther) {
  Simulator sim(1);
  std::vector<util::SimTime> arrivals;
  LinkConfig cfg;
  cfg.rate = util::DataRate::mbps(8);
  cfg.delay = 0;
  Link link(sim, "l", cfg, [&](Packet&&) { arrivals.push_back(sim.now()); });
  link.send(make_packet(0, 1, 972));
  link.send(make_packet(0, 1, 972));
  sim.events().run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1] - arrivals[0], 1000 * kMicrosecond);
}

TEST(Link, DropTailQueueAccounting) {
  Simulator sim(1);
  int delivered = 0;
  LinkConfig cfg;
  cfg.rate = util::DataRate::kbps(8);  // 1 byte per ms: glacial
  cfg.delay = 0;
  cfg.queue_bytes = 2500;
  Link link(sim, "l", cfg, [&](Packet&&) { ++delivered; });
  for (int i = 0; i < 5; ++i) link.send(make_packet(0, 1, 972));
  sim.events().run();
  EXPECT_EQ(delivered + static_cast<int>(link.stats().drops_queue), 5);
  EXPECT_GT(link.stats().drops_queue, 0u);
  // At least one packet is always accepted even if it exceeds the queue.
  EXPECT_GE(delivered, 2);
}

TEST(Link, BernoulliLossRateApproximate) {
  Simulator sim(2);
  int delivered = 0;
  LinkConfig cfg;
  cfg.rate = util::DataRate::gbps(10);
  cfg.delay = 0;
  cfg.queue_bytes = 1 << 30;
  cfg.loss_rate = 0.25;
  Link link(sim, "l", cfg, [&](Packet&&) { ++delivered; });
  const int n = 20000;
  for (int i = 0; i < n; ++i) link.send(make_packet(0, 1, 100));
  sim.events().run();
  EXPECT_NEAR(static_cast<double>(delivered) / n, 0.75, 0.02);
  EXPECT_EQ(link.stats().drops_wire + static_cast<std::uint64_t>(delivered),
            static_cast<std::uint64_t>(n));
}

TEST(Link, GilbertElliottLossBurstier) {
  // Same average loss, but GE should produce consecutive-loss runs.
  Simulator sim(3);
  std::vector<bool> outcome;
  LinkConfig cfg;
  cfg.rate = util::DataRate::gbps(10);
  cfg.delay = 0;
  cfg.queue_bytes = 1 << 30;
  cfg.gilbert_elliott = true;
  cfg.ge_good_to_bad = 0.01;
  cfg.ge_bad_to_good = 0.2;
  cfg.ge_loss_bad = 0.8;
  cfg.ge_loss_good = 0.0;
  int seq = 0;
  Link link(sim, "l", cfg, [&](Packet&& p) {
    (void)p;
    ++seq;
  });
  const int n = 50000;
  for (int i = 0; i < n; ++i) link.send(make_packet(0, 1, 100));
  sim.events().run();
  const auto drops = link.stats().drops_wire;
  EXPECT_GT(drops, 500u);   // bad state visits happen
  EXPECT_LT(drops, 10000u); // but loss is far below the bad-state rate
}

TEST(Link, JitterNeverReorders) {
  Simulator sim(4);
  std::vector<std::uint64_t> serials;
  LinkConfig cfg;
  cfg.rate = util::DataRate::gbps(1);
  cfg.delay = kMillisecond;
  cfg.jitter = 5 * kMillisecond;  // jitter >> serialization gap
  Link link(sim, "l", cfg,
            [&](Packet&& p) { serials.push_back(p.serial); });
  for (std::uint64_t i = 1; i <= 200; ++i) {
    auto p = make_packet(0, 1, 100);
    p.serial = i;
    link.send(std::move(p));
  }
  sim.events().run();
  ASSERT_EQ(serials.size(), 200u);
  for (std::size_t i = 1; i < serials.size(); ++i) {
    EXPECT_LT(serials[i - 1], serials[i]) << "reordered at " << i;
  }
}

TEST(Link, LossRateChangeAppliesToQueuedPackets) {
  // 10 ms of serialisation per packet, 50 ms of propagation. A departs at
  // 10 ms, B at 20, C at 30, D at 40. The link blackholes from 15 ms to
  // 35 ms: A had already left, B and C leave inside the window, D after.
  Simulator sim(5);
  std::vector<std::pair<util::SimTime, std::uint64_t>> arrivals;
  LinkConfig cfg;
  cfg.rate = util::DataRate::kbps(800);  // 10 us per byte
  cfg.delay = 50 * kMillisecond;
  Link link(sim, "l", cfg, [&](Packet&& p) {
    arrivals.emplace_back(sim.now(), p.serial);
  });
  for (std::uint64_t i = 1; i <= 4; ++i) {
    auto p = make_packet(0, 1, 972);  // 1000 wire bytes
    p.serial = i;
    link.send(std::move(p));
  }
  sim.events().schedule_at(15 * kMillisecond, [&] { link.set_loss_rate(1.0); });
  sim.events().schedule_at(35 * kMillisecond, [&] { link.set_loss_rate(0.0); });
  sim.events().run();
  const std::vector<std::pair<util::SimTime, std::uint64_t>> want = {
      {60 * kMillisecond, 1}, {90 * kMillisecond, 4}};
  EXPECT_EQ(arrivals, want);
  EXPECT_EQ(link.stats().drops_wire, 2u);
  EXPECT_EQ(link.stats().packets_sent, 4u);
}

// The event-per-departure link the analytic Link replaced, kept as the
// reference model: a finish_transmission event ends every packet's
// serialisation, and loss and jitter are drawn there.
class ReferenceLink {
 public:
  ReferenceLink(Simulator& sim, const LinkConfig& config,
                Link::DeliverFn deliver)
      : sim_(sim),
        config_(config),
        deliver_(std::move(deliver)),
        rng_(sim.make_rng()) {}

  void send(Packet&& p) {
    const std::size_t size = p.wire_bytes();
    if (queued_bytes_ + size > config_.queue_bytes && !queue_.empty()) {
      ++stats_.drops_queue;
      return;
    }
    queued_bytes_ += size;
    stats_.max_queue_bytes = std::max(stats_.max_queue_bytes, queued_bytes_);
    queue_.push_back(std::move(p));
    if (!transmitting_) start_transmission();
  }

  const LinkStats& stats() const { return stats_; }
  std::size_t queued_bytes() const { return queued_bytes_; }
  void set_loss_rate(double p) { config_.loss_rate = p; }

 private:
  void start_transmission() {
    transmitting_ = !queue_.empty();
    if (!transmitting_) return;
    sim_.events().schedule_in(
        config_.rate.transmission_time(queue_.front().wire_bytes()),
        [this] { finish_transmission(); });
  }

  bool wire_drops() {
    if (config_.gilbert_elliott) {
      if (ge_bad_state_) {
        if (rng_.bernoulli(config_.ge_bad_to_good)) ge_bad_state_ = false;
      } else {
        if (rng_.bernoulli(config_.ge_good_to_bad)) ge_bad_state_ = true;
      }
      return rng_.bernoulli(ge_bad_state_ ? config_.ge_loss_bad
                                          : config_.ge_loss_good);
    }
    return rng_.bernoulli(config_.loss_rate);
  }

  void finish_transmission() {
    Packet p = std::move(queue_.front());
    queue_.pop_front();
    queued_bytes_ -= p.wire_bytes();
    ++stats_.packets_sent;
    stats_.bytes_sent += p.wire_bytes();
    if (wire_drops()) {
      ++stats_.drops_wire;
    } else {
      util::SimDuration prop = config_.delay;
      if (config_.jitter > 0) {
        prop += static_cast<util::SimDuration>(
            rng_.uniform(0.0, static_cast<double>(config_.jitter)));
      }
      const util::SimTime at = std::max(sim_.now() + prop, last_delivery_);
      last_delivery_ = at;
      in_flight_.push_back(std::move(p));
      sim_.events().schedule_at(at, [this] {
        Packet head = std::move(in_flight_.front());
        in_flight_.pop_front();
        deliver_(std::move(head));
      });
    }
    start_transmission();
  }

  Simulator& sim_;
  LinkConfig config_;
  Link::DeliverFn deliver_;
  util::Rng rng_;
  std::deque<Packet> queue_;
  std::deque<Packet> in_flight_;
  std::size_t queued_bytes_ = 0;
  bool transmitting_ = false;
  bool ge_bad_state_ = false;
  util::SimTime last_delivery_ = 0;
  LinkStats stats_;
};

// One seeded script of link activity: bursts of sends, loss-rate changes
// and mid-run readings. Every action gets its own residue modulo the
// per-byte serialisation time (800 ns at 10 Mbit/s) while every departure
// shares the residue of the send that opened its busy period, so no action
// lands on the very nanosecond a packet departs. (At such a tie the old
// link's ordering of the two events, not the model, decides the outcome.)
struct LinkScript {
  static constexpr util::SimDuration kNsPerByte = 800;

  struct Action {
    util::SimTime at;
    std::vector<std::uint32_t> burst;  ///< payload sizes; empty = rate change
    double loss_rate = 0.0;
  };

  LinkScript(std::uint64_t seed, double base_rate) {
    util::Rng rng(seed);
    const double rates[] = {0.0, 1.0, base_rate};
    for (std::uint64_t i = 0; i < 300; ++i) {
      Action a;
      a.at = static_cast<util::SimTime>(rng.uniform_int(0, 500)) *
                 kNsPerByte * 1000 +
             static_cast<util::SimTime>(i + 1);
      if (rng.uniform_int(0, 9) == 0) {
        a.loss_rate = rates[rng.uniform_int(0, 2)];
      } else {
        const std::uint64_t n = rng.uniform_int(1, 12);
        for (std::uint64_t k = 0; k < n; ++k) {
          a.burst.push_back(
              static_cast<std::uint32_t>(rng.uniform_int(12, 1472)));
        }
      }
      actions.push_back(std::move(a));
    }
    for (int k = 1; k <= 40; ++k) readings.push_back(k * 10 * kMillisecond);
  }

  std::vector<Action> actions;
  std::vector<util::SimTime> readings;  ///< run_until points
};

struct LinkTrace {
  std::vector<std::pair<util::SimTime, std::uint64_t>> delivered;
  std::vector<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                         std::uint64_t, std::size_t, std::size_t>>
      readings;  ///< LinkStats fields, then queued_bytes()
  int rate_changes_with_queue = 0;
};

template <typename L>
LinkTrace run_link_script(const LinkConfig& cfg, const LinkScript& script) {
  Simulator sim(11);
  LinkTrace trace;
  L link(sim, cfg, [&](Packet&& p) {
    trace.delivered.emplace_back(sim.now(), p.serial);
  });
  std::uint64_t serial = 0;
  for (const LinkScript::Action& a : script.actions) {
    sim.events().schedule_at(a.at, [&] {
      if (a.burst.empty()) {
        if (link.queued_bytes() > 0) ++trace.rate_changes_with_queue;
        link.set_loss_rate(a.loss_rate);
        return;
      }
      for (const std::uint32_t size : a.burst) {
        Packet p = make_packet(0, 1, size);
        p.serial = ++serial;
        link.send(std::move(p));
      }
    });
  }
  const auto read = [&] {
    const LinkStats& s = link.stats();
    trace.readings.emplace_back(s.packets_sent, s.bytes_sent, s.drops_queue,
                                s.drops_wire, s.max_queue_bytes,
                                link.queued_bytes());
  };
  for (const util::SimTime t : script.readings) {
    sim.events().run_until(t);
    read();
  }
  sim.events().run();
  read();
  return trace;
}

// Link's constructor has a name argument the reference does not.
struct AnalyticLink : Link {
  AnalyticLink(Simulator& sim, const LinkConfig& cfg, DeliverFn deliver)
      : Link(sim, "l", cfg, std::move(deliver)) {}
};

TEST(Link, MatchesEventPerDepartureReferenceModel) {
  LinkConfig bernoulli;
  bernoulli.rate = util::DataRate::mbps(10);  // LinkScript::kNsPerByte
  bernoulli.delay = 5 * kMillisecond;
  bernoulli.queue_bytes = 24 * util::kKiB;
  bernoulli.loss_rate = 0.05;
  LinkConfig jittery = bernoulli;
  jittery.jitter = 3 * kMillisecond;  // far above a packet's serialisation
  LinkConfig lossless = jittery;
  lossless.loss_rate = 0.0;
  LinkConfig bursty = jittery;
  bursty.gilbert_elliott = true;
  bursty.ge_good_to_bad = 0.05;
  bursty.ge_bad_to_good = 0.3;
  bursty.ge_loss_good = 0.01;
  bursty.ge_loss_bad = 0.6;

  int rate_changes_with_queue = 0;
  for (const LinkConfig& cfg : {bernoulli, jittery, lossless, bursty}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(testing::Message()
                   << "loss " << cfg.loss_rate << " jitter " << cfg.jitter
                   << " ge " << cfg.gilbert_elliott << " seed " << seed);
      const LinkScript script(seed, cfg.loss_rate);
      const LinkTrace want = run_link_script<ReferenceLink>(cfg, script);
      const LinkTrace got = run_link_script<AnalyticLink>(cfg, script);
      EXPECT_GT(want.delivered.size(), 500u);
      EXPECT_EQ(got.delivered, want.delivered);
      EXPECT_EQ(got.readings, want.readings);
      rate_changes_with_queue += want.rate_changes_with_queue;
    }
  }
  // The rewind path ran: rates changed under packets still queued.
  EXPECT_GT(rate_changes_with_queue, 20);
}

// --- network / routing -------------------------------------------------------

TEST(Network, RoutesAcrossMultipleHops) {
  Network net(1);
  Node& a = net.add_host("a");
  Node& r1 = net.add_router("r1");
  Node& r2 = net.add_router("r2");
  Node& b = net.add_host("b");
  LinkConfig l;
  l.rate = util::DataRate::mbps(100);
  l.delay = kMillisecond;
  net.connect(a, r1, l);
  net.connect(r1, r2, l);
  net.connect(r2, b, l);
  net.compute_routes();

  int got = 0;
  b.set_protocol_handler(Protocol::kUdp, [&](Packet&&) { ++got; });
  a.send(make_packet(a.id(), b.id(), 100));
  net.run();
  EXPECT_EQ(got, 1);
}

TEST(Network, PicksShorterDelayPath) {
  Network net(1);
  Node& a = net.add_host("a");
  Node& fast = net.add_router("fast");
  Node& slow = net.add_router("slow");
  Node& b = net.add_host("b");
  LinkConfig quick;
  quick.delay = kMillisecond;
  LinkConfig laggy;
  laggy.delay = 10 * kMillisecond;
  net.connect(a, fast, quick);
  net.connect(fast, b, quick);
  net.connect(a, slow, laggy);
  net.connect(slow, b, laggy);
  net.compute_routes();

  bool got = false;
  b.set_protocol_handler(Protocol::kUdp, [&](Packet&&) { got = true; });
  a.send(make_packet(a.id(), b.id(), 100));
  net.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(net.link_between(a.id(), fast.id())->stats().packets_sent, 1u);
  EXPECT_EQ(net.link_between(a.id(), slow.id())->stats().packets_sent, 0u);
}

TEST(Network, HostsDoNotForwardTransit) {
  Network net(1);
  Node& a = net.add_host("a");
  Node& mid = net.add_host("mid");  // host, not router
  Node& b = net.add_host("b");
  LinkConfig l;
  net.connect(a, mid, l);
  net.connect(mid, b, l);
  net.compute_routes();

  bool got = false;
  b.set_protocol_handler(Protocol::kUdp, [&](Packet&&) { got = true; });
  a.send(make_packet(a.id(), b.id(), 100));
  net.run();
  EXPECT_FALSE(got);  // no router path exists
}

TEST(Network, DuplicateNodeNameRejected) {
  Network net(1);
  net.add_host("x");
  EXPECT_THROW(net.add_host("x"), std::invalid_argument);
}

TEST(Network, LoopbackDelivery) {
  Network net(1);
  Node& a = net.add_host("a");
  bool got = false;
  a.set_protocol_handler(Protocol::kUdp, [&](Packet&&) { got = true; });
  a.send(make_packet(a.id(), a.id(), 10));
  net.run();
  EXPECT_TRUE(got);
}

TEST(CrossTraffic, AverageRateNearConfigured) {
  Network net(7);
  Node& a = net.add_host("a");
  Node& b = net.add_host("b");
  LinkConfig l;
  l.rate = util::DataRate::mbps(100);
  l.delay = kMillisecond;
  net.connect(a, b, l);
  net.compute_routes();
  b.set_protocol_handler(Protocol::kUdp, [](Packet&&) {});

  CrossTrafficConfig cfg;
  cfg.peak_rate = util::DataRate::mbps(9);
  cfg.mean_on = 100 * kMillisecond;
  cfg.mean_off = 200 * kMillisecond;  // duty 1/3 -> ~3 Mbit/s average
  OnOffUdpSource src(net, a, b.id(), cfg);
  src.start();
  net.run_until(20 * kSecond);
  src.stop();

  const double mbps =
      static_cast<double>(src.packets_sent()) * (1000 + 28) * 8 / 20.0 / 1e6;
  EXPECT_NEAR(mbps, 3.0, 1.0);
}

}  // namespace
}  // namespace lsl::sim
