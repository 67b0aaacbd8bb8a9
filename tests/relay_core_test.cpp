// RelayCore without sockets: the relay lifecycle both depots (the sim's
// DepotApp and the posix Lsd) drive, exercised through a fake host that
// only records what the core asks of it. Time is a plain int64 the test
// advances by hand.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "relay/relay_core.hpp"

namespace lsl::test {
namespace {

using relay::FailReason;
using relay::RelayCore;
using relay::RelaySession;

core::SessionId session_id(std::uint8_t tag) {
  std::array<std::uint8_t, 16> b{};
  b[0] = tag;
  b[15] = 0x5a;
  return core::SessionId(b);
}

core::SessionHeader header_for(const core::SessionId& id) {
  core::SessionHeader h;
  h.session = id;
  return h;
}

/// A host with no bytes: aborts are recorded and finished at once.
struct FakeHost {
  explicit FakeHost(relay::CoreConfig cfg)
      : core(cfg, stats,
             [this](RelaySession& s, FailReason why) {
               aborts.emplace_back(&s, why);
               core.finish(s, why, now);
             },
             [this](const live::DrainReport& rep) { drains.push_back(rep); }) {
  }

  RelaySession& add() {
    relays.push_back(std::make_unique<RelaySession>());
    RelaySession& s = *relays.back();
    core.accept(s, now);
    return s;
  }
  /// Accept, parse a header for `id`, dial and connect.
  RelaySession& streaming(const core::SessionId& id) {
    RelaySession& s = add();
    core.header_parsed(s, header_for(id), now);
    core.dial(s, now);
    core.connected(s, now);
    return s;
  }
  /// A fresh connection whose header asks to resume `id`.
  RelaySession& resumer(const core::SessionId& id) {
    RelaySession& s = add();
    core.header_parsed(s, header_for(id), now);
    return s;
  }
  void advance(std::int64_t ns) {
    now += ns;
    core.fire_due(now);
  }

  relay::LifecycleStats stats;
  std::vector<std::pair<RelaySession*, FailReason>> aborts;
  std::vector<live::DrainReport> drains;
  std::int64_t now = 1000;
  RelayCore core;
  /// Declared after the core: relay liveness destructors cancel entries
  /// in the core's wheel.
  std::vector<std::unique_ptr<RelaySession>> relays;
};

relay::CoreConfig resumable() {
  relay::CoreConfig cfg;
  cfg.resume_grace_ns = 1'000'000;
  return cfg;
}

TEST(RelayCore, ParkResumeTwiceBelowTheHighWaterMark) {
  FakeHost h(resumable());
  const core::SessionId id = session_id(1);
  RelaySession& a = h.streaming(id);
  EXPECT_EQ(a.absorb(1000), 0u);
  ASSERT_TRUE(h.core.parkable(a));
  h.core.park(a, h.now);
  EXPECT_TRUE(a.parked);
  EXPECT_EQ(h.core.parked_count(), 1u);

  RelaySession& b = h.resumer(id);
  EXPECT_EQ(h.core.resume(b, 600, h.now), &a);
  EXPECT_TRUE(b.done());
  EXPECT_FALSE(a.parked);
  EXPECT_EQ(a.discard_left, 400u);
  EXPECT_EQ(a.payload_pulled, 1000u);

  // 100 of the 400 duplicated bytes arrive, then the upstream dies again.
  EXPECT_EQ(a.absorb(100), 100u);
  EXPECT_EQ(a.payload_pulled, 1000u);
  h.core.park(a, h.now);

  // The second offset sits above where the resumed stream had reached
  // (700) but below the frontier: the relay already holds those bytes.
  RelaySession& c = h.resumer(id);
  EXPECT_EQ(h.core.resume(c, 800, h.now), &a);
  EXPECT_EQ(a.discard_left, 200u);
  EXPECT_EQ(a.payload_pulled, 1000u);
  EXPECT_EQ(a.absorb(300), 200u);
  EXPECT_EQ(a.payload_pulled, 1100u);
  EXPECT_EQ(a.discard_left, 0u);

  h.core.finish(a, FailReason::kNone, h.now);
  EXPECT_EQ(h.stats.sessions_parked, 2u);
  EXPECT_EQ(h.stats.sessions_resumed, 2u);
  EXPECT_EQ(h.stats.sessions_completed, 1u);
  EXPECT_EQ(h.stats.sessions_failed, 0u);  // husks count as neither
  EXPECT_EQ(h.stats.sessions_accepted, 3u);
  EXPECT_EQ(h.core.live_count(), 0u);
  EXPECT_TRUE(h.aborts.empty());
}

TEST(RelayCore, GapOffsetRefusesTheFreshRelayAndKeepsTheParkedOne) {
  FakeHost h(resumable());
  const core::SessionId id = session_id(2);
  RelaySession& a = h.streaming(id);
  a.absorb(1000);
  h.core.park(a, h.now);

  RelaySession& liar = h.resumer(id);
  EXPECT_EQ(h.core.resume(liar, 1500, h.now), nullptr);
  EXPECT_TRUE(liar.done());
  ASSERT_EQ(h.aborts.size(), 1u);
  EXPECT_EQ(h.aborts[0].first, &liar);
  EXPECT_EQ(h.aborts[0].second, FailReason::kHeader);
  EXPECT_EQ(h.stats.fail_header, 1u);
  EXPECT_EQ(h.stats.sessions_failed, 1u);
  // The parked session is untouched and still resumable.
  EXPECT_TRUE(a.parked);
  EXPECT_FALSE(a.done());
  EXPECT_EQ(h.core.parked_count(), 1u);

  RelaySession& honest = h.resumer(id);
  EXPECT_EQ(h.core.resume(honest, 1000, h.now), &a);
  EXPECT_EQ(a.discard_left, 0u);
  EXPECT_EQ(h.stats.sessions_resumed, 1u);
  EXPECT_EQ(h.stats.sessions_failed, 1u);
}

TEST(RelayCore, ParkedSessionExpiresAtTheGrace) {
  FakeHost h(resumable());
  RelaySession& a = h.streaming(session_id(3));
  h.core.park(a, h.now);
  ASSERT_TRUE(h.core.has_deadline());
  EXPECT_EQ(h.core.next_due(), h.now + 1'000'000);
  h.advance(999'999);
  EXPECT_TRUE(a.parked);
  h.advance(1);
  EXPECT_TRUE(a.done());
  EXPECT_EQ(h.stats.fail_peer_reset, 1u);
  EXPECT_EQ(h.core.parked_count(), 0u);
  EXPECT_FALSE(h.core.has_deadline());
}

TEST(RelayCore, UnknownSessionIsRefusedAsAHeaderFailure) {
  FakeHost h(resumable());
  RelaySession& a = h.streaming(session_id(4));
  h.core.park(a, h.now);
  RelaySession& stranger = h.resumer(session_id(5));
  EXPECT_EQ(h.core.resume(stranger, 0, h.now), nullptr);
  EXPECT_TRUE(stranger.done());
  EXPECT_EQ(h.stats.fail_header, 1u);
  EXPECT_EQ(h.stats.sessions_failed, 1u);
  EXPECT_EQ(h.stats.sessions_resumed, 0u);
  EXPECT_TRUE(a.parked);
}

TEST(RelayCore, EachDeadlineKindBumpsOnlyItsOwnCounter) {
  relay::CoreConfig cfg;
  cfg.liveness.header_timeout = 10;
  cfg.liveness.dial_timeout = 10;
  cfg.liveness.idle_timeout = 10;
  cfg.liveness.stall_window = 10;
  const std::vector<live::DeadlineKind> kinds = {
      live::DeadlineKind::kHeader, live::DeadlineKind::kDial,
      live::DeadlineKind::kIdle, live::DeadlineKind::kStall};
  for (const live::DeadlineKind kind : kinds) {
    SCOPED_TRACE(live::to_string(kind));
    FakeHost h(cfg);
    RelaySession& s = h.add();
    if (kind != live::DeadlineKind::kHeader) {
      h.core.header_parsed(s, header_for(session_id(6)), h.now);
      h.core.dial(s, h.now);
    }
    if (kind == live::DeadlineKind::kIdle ||
        kind == live::DeadlineKind::kStall) {
      h.core.connected(s, h.now);
      h.core.watch(s, /*staged=*/kind == live::DeadlineKind::kStall, h.now);
    }
    h.advance(11);
    ASSERT_TRUE(s.done());
    ASSERT_EQ(h.aborts.size(), 1u);
    EXPECT_EQ(h.aborts[0].second, FailReason::kTimeout);
    EXPECT_EQ(h.stats.fail_timeout, 1u);
    EXPECT_EQ(h.stats.sessions_failed, 1u);
    EXPECT_EQ(h.stats.timeouts_header,
              kind == live::DeadlineKind::kHeader ? 1u : 0u);
    EXPECT_EQ(h.stats.timeouts_dial,
              kind == live::DeadlineKind::kDial ? 1u : 0u);
    EXPECT_EQ(h.stats.timeouts_idle,
              kind == live::DeadlineKind::kIdle ? 1u : 0u);
    EXPECT_EQ(h.stats.timeouts_stall,
              kind == live::DeadlineKind::kStall ? 1u : 0u);
  }
}

TEST(RelayCore, DrainResolvesWhenEveryRelayFinishedOrParked) {
  FakeHost h(resumable());
  RelaySession& done_ok = h.streaming(session_id(7));
  RelaySession& failing = h.streaming(session_id(8));
  RelaySession& parking = h.streaming(session_id(9));
  h.core.park(parking, h.now);

  h.core.begin_drain(h.now);
  EXPECT_TRUE(h.core.draining());
  EXPECT_EQ(h.core.drain_report().in_flight_at_start, 2u);
  EXPECT_FALSE(h.core.admit());  // refused while draining
  EXPECT_EQ(h.stats.sessions_refused_drain, 1u);

  h.core.finish(done_ok, FailReason::kNone, h.now);
  EXPECT_FALSE(h.core.drain_done());
  h.core.finish(failing, FailReason::kPeerReset, h.now);
  ASSERT_TRUE(h.core.drain_done());
  ASSERT_EQ(h.drains.size(), 1u);
  const live::DrainReport& rep = h.drains[0];
  EXPECT_EQ(rep.completed, 1u);
  EXPECT_EQ(rep.parked, 1u);
  EXPECT_EQ(rep.aborted, 0u);
  EXPECT_EQ(rep.refused, 1u);
  EXPECT_FALSE(rep.expired);
}

TEST(RelayCore, DrainDeadlineAbortsTheStragglers) {
  relay::CoreConfig cfg = resumable();
  cfg.liveness.drain_deadline = 100;
  FakeHost h(cfg);
  RelaySession& done_ok = h.streaming(session_id(10));
  RelaySession& straggler = h.streaming(session_id(11));
  RelaySession& parking = h.streaming(session_id(12));
  h.core.park(parking, h.now);

  h.core.begin_drain(h.now);
  h.core.finish(done_ok, FailReason::kNone, h.now);
  h.advance(99);
  EXPECT_FALSE(h.core.drain_done());
  h.advance(1);
  ASSERT_TRUE(h.core.drain_done());
  EXPECT_TRUE(straggler.done());
  ASSERT_EQ(h.aborts.size(), 1u);
  EXPECT_EQ(h.aborts[0].first, &straggler);
  EXPECT_EQ(h.aborts[0].second, FailReason::kOther);
  ASSERT_EQ(h.drains.size(), 1u);
  const live::DrainReport& rep = h.drains[0];
  EXPECT_EQ(rep.in_flight_at_start, 2u);
  EXPECT_EQ(rep.completed, 1u);
  EXPECT_EQ(rep.parked, 1u);
  EXPECT_EQ(rep.aborted, 1u);
  EXPECT_TRUE(rep.expired);
  EXPECT_TRUE(parking.parked);  // parked sessions outlive the drain
}

}  // namespace
}  // namespace lsl::test
