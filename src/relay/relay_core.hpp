// RelayCore — the depot relay lifecycle, without I/O.
//
// The paper's `lsd` accepts a session, reads its header, dials the next
// hop, relays through small hop-by-hop buffers and leaves integrity to the
// endpoints. Two hosts run that daemon: the simulator's core::DepotApp (sim
// TCP sockets, a modelled copy resource, simulated time) and the real
// posix::Lsd (nonblocking fds, splice, an epoll loop and a timerfd). Their
// byte movement differs; their lifecycle must not. This module is that
// lifecycle, written once:
//
//  * per-relay state header -> dial -> stream -> done through the checked
//    RelayState table. Parking is orthogonal to it: a relay may park while
//    its downstream is still connecting (kDial) or streaming (kStream);
//  * the park registry keyed by SessionId, with its grace expiry;
//  * the resume verdict and discard arithmetic. RelaySession::payload_pulled
//    is the distinct high-water mark of payload secured from upstream;
//    discard_left is the duplicated prefix a resumed connection still owes;
//  * RelayLiveness attachment and the DeadlineKind -> counter mapping;
//  * graceful drain (DrainReport, span.drain);
//  * accept/header/dial/stream-window/park/resume spans;
//  * the lifecycle counters (LifecycleStats).
//
// The core never touches sockets, timers or buffers. Every call takes `now`
// as int64 nanoseconds on the host's timebase. When the core decides a relay
// must die (a deadline, a park expiry, the drain bound, a refused resume) it
// calls the host's abort hook; the host tears its bytes and sockets down and
// reports back with finish(). The host keeps one wake-up armed at
// next_due() and calls fire_due() when it lands.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>

#include "live/deadline_wheel.hpp"
#include "live/live_metrics.hpp"
#include "live/liveness.hpp"
#include "lsl/session_id.hpp"
#include "lsl/wire.hpp"
#include "span/span.hpp"
#include "util/contract.hpp"

namespace lsl::relay {

/// Lifecycle of one relay session, validated by relay_transition_table().
///
/// kDone is terminal: a finished relay's sockets are closed and its buffers
/// are dead — any attempt to drive it again aborts as a forbidden kDone
/// edge instead of touching freed state.
enum class RelayState {
  kHeader,  ///< reading the upstream session header
  kDial,    ///< header parsed, downstream connect in progress
  kStream,  ///< relaying payload / reverse-path bytes
  kDone,    ///< finished (success or failure); terminal
};

/// Human-readable relay state name (diagnostics).
const char* to_string(RelayState s);

/// Number of RelayState values (TransitionTable dimension).
inline constexpr std::size_t kRelayStateCount = 4;

/// Legal edges of the relay lifecycle; see RelayState.
const util::TransitionTable<RelayState, kRelayStateCount>&
relay_transition_table();

/// Why a relay session ended (the largest contributor wins; a session
/// counts under exactly one reason).
enum class FailReason {
  kNone,       ///< session completed — not a failure
  kDial,       ///< downstream connect refused / unreachable
  kHeader,     ///< malformed or truncated header, or a refused resume
  kPeerReset,  ///< connection error mid-relay, or an unresumed park expired
  kTimeout,    ///< a liveness deadline fired (header/dial/idle/stall)
  kOther,      ///< crash, drain abort, premature downstream EOF, ...
};

/// Lifecycle counters both depots report (their stats structs extend this).
struct LifecycleStats {
  std::uint64_t sessions_accepted = 0;
  std::uint64_t sessions_completed = 0;
  std::uint64_t sessions_failed = 0;
  // Failure-reason breakdown; the five reasons sum to sessions_failed.
  std::uint64_t fail_dial = 0;
  std::uint64_t fail_header = 0;
  std::uint64_t fail_peer_reset = 0;
  std::uint64_t fail_timeout = 0;
  std::uint64_t fail_other = 0;
  std::uint64_t sessions_parked = 0;   ///< upstream died, session kept
  std::uint64_t sessions_resumed = 0;  ///< kFlagResume rebinds completed
  /// Connections refused at accept because a graceful drain is running.
  std::uint64_t sessions_refused_drain = 0;
  // Liveness-deadline breakdown; the four classes sum to fail_timeout.
  std::uint64_t timeouts_header = 0;
  std::uint64_t timeouts_dial = 0;
  std::uint64_t timeouts_idle = 0;
  std::uint64_t timeouts_stall = 0;
};

/// Element-wise sum (aggregating per-shard counters).
LifecycleStats operator+(const LifecycleStats& a, const LifecycleStats& b);

/// The lifecycle half of one relay. Each host's relay type derives from it
/// and adds its byte-movement state; the core hands the same object back
/// through the abort hook.
class RelaySession {
 public:
  RelaySession() = default;
  RelaySession(const RelaySession&) = delete;
  RelaySession& operator=(const RelaySession&) = delete;

  bool done() const { return state == RelayState::kDone; }

  /// Account `got` payload bytes just taken from upstream: the duplicated
  /// prefix of a resumed connection is dropped, the rest advances the
  /// high-water mark. Returns how many leading bytes to drop.
  std::uint64_t absorb(std::uint64_t got) {
    const std::uint64_t drop = discard_left < got ? discard_left : got;
    discard_left -= drop;
    payload_pulled += got - drop;
    return drop;
  }

  util::CheckedState<RelayState, kRelayStateCount> state{
      relay_transition_table(), RelayState::kHeader};
  bool header_done = false;
  /// Upstream gone, downstream kept, awaiting a kFlagResume reconnect.
  bool parked = false;

  core::SessionId session;
  /// Span join key from the header; 0 = untraced.
  std::uint64_t trace_id = 0;
  /// Stripe lane of a striped (wire v3) session, -1 otherwise: selects the
  /// lane-indexed stream-window span name and feeds the daemon's
  /// striped-relay census.
  int stripe_lane = -1;

  std::int64_t accept_ns = 0;
  std::int64_t dial_start_ns = 0;  ///< header done; span.dial opens here

  /// Distinct payload bytes secured from upstream (the frontier a resume
  /// offset is checked against).
  std::uint64_t payload_pulled = 0;
  /// Duplicated prefix of a resumed connection still to drop.
  std::uint64_t discard_left = 0;

  /// Payload bytes this relay pushed downstream.
  std::uint64_t relayed = 0;

  /// Lifecycle deadlines + progress watchdog (inert unless the core's
  /// LivenessConfig arms a class).
  live::RelayLiveness live;

 private:
  friend class RelayCore;
  std::uint64_t window_base_ = 0;    ///< `relayed` at stream-window open
  std::int64_t window_open_ns_ = -1; ///< -1 = no open stream window
  std::int64_t park_deadline_ns_ = 0;
  live::DeadlineWheel::Token park_token_ = live::DeadlineWheel::kInvalidToken;
  // Intrusive list of live sessions, in accept order.
  RelaySession* prev_ = nullptr;
  RelaySession* next_ = nullptr;
};

/// What a host fixes about the lifecycle at construction.
struct CoreConfig {
  /// Log prefix ("depot", "lsd").
  const char* name = "relay";
  live::LivenessConfig liveness;
  /// Park window for a session whose upstream died; 0 disables resumption.
  std::int64_t resume_grace_ns = 0;
  /// Host timebase -> span seconds (each host keeps its own conversion);
  /// required once a tracer is attached.
  double (*span_seconds)(std::int64_t ns) = nullptr;
};

class RelayCore {
 public:
  /// The core decided `s` must die; the host tears it down and calls
  /// finish(s, why, now). Invoked from fire_due(), resume() and
  /// expire_parked().
  using AbortHook = std::function<void(RelaySession& s, FailReason why)>;
  using DrainHook = std::function<void(const live::DrainReport&)>;

  /// `stats` (the host's stats struct) must outlive the core.
  RelayCore(const CoreConfig& config, LifecycleStats& stats, AbortHook abort,
            DrainHook drain_done);
  RelayCore(const RelayCore&) = delete;
  RelayCore& operator=(const RelayCore&) = delete;

  void set_tracer(span::Tracer* t) { tracer_ = t; }
  span::Tracer* tracer() const { return tracer_; }
  void set_live_metrics(live::LiveMetrics* m) { live_metrics_ = m; }

  // --- Per-relay lifecycle edges -------------------------------------------

  /// A new connection arrived. While draining it is refused and counted
  /// (the host resets it) and this returns false.
  bool admit();
  /// Adopt an admitted connection as a live relay in kHeader.
  void accept(RelaySession& s, std::int64_t now);
  /// The header is in: take its ids and backfill the accept/header spans.
  void header_parsed(RelaySession& s, const core::SessionHeader& h,
                     std::int64_t now);
  /// Dialing the next hop (kHeader -> kDial).
  void dial(RelaySession& s, std::int64_t now);
  /// Downstream connect completed (kDial -> kStream).
  void connected(RelaySession& s, std::int64_t now);
  /// `took` payload bytes went downstream: opens a stream window at the
  /// first byte, closes one per span::kStreamWindowBytes.
  void note_stream(RelaySession& s, std::uint64_t took, std::int64_t now) {
    s.relayed += took;
    if (tracer_ != nullptr && s.trace_id != 0 && took != 0) {
      stream_window(s, took, now);
    }
  }
  /// Whether bytes are staged for downstream (stall watch) or not (idle
  /// watch); no-op for finished and parked relays.
  void watch(RelaySession& s, bool staged, std::int64_t now) {
    if (!s.done() && !s.parked) s.live.set_should_progress(staged, now);
  }

  /// Whether a live relay whose upstream died may park instead of failing:
  /// resumption is on and the header named a session and a next hop. The
  /// host adds its own "upstream has not sent EOF" condition.
  bool parkable(const RelaySession& s) const;
  /// Park `s` after the host salvaged its upstream: liveness stops, the
  /// grace expiry is armed and the session becomes resumable.
  void park(RelaySession& s, std::int64_t now);
  /// `fresh` carries a resume header for its session at `offset`. Returns
  /// the parked relay, re-armed with discard_left set, and retires `fresh`;
  /// the host moves fresh's connection onto it. Returns null when the
  /// session is not parked or `offset` lies beyond its frontier: `fresh`
  /// is then aborted (FailReason::kHeader) and the parked relay stays
  /// resumable until its grace expires.
  RelaySession* resume(RelaySession& fresh, std::uint64_t offset,
                       std::int64_t now);
  /// Abort parked relays whose grace has passed (lazy backstop for hosts
  /// that poll instead of running their timer).
  void expire_parked(std::int64_t now);

  /// The relay ended: kNone = completed, anything else a failure counted
  /// under that reason. Idempotent.
  void finish(RelaySession& s, FailReason why, std::int64_t now);

  /// Live (unfinished) relays, parked ones included.
  std::size_t live_count() const { return live_count_; }
  std::size_t parked_count() const { return parked_.size(); }

  // --- Graceful drain ------------------------------------------------------

  /// Refuse new sessions from now on; resolve once every live relay has
  /// finished or parked, or abort the stragglers at the drain deadline.
  void begin_drain(std::int64_t now);
  bool draining() const { return draining_; }
  bool drain_done() const { return drain_done_; }
  const live::DrainReport& drain_report() const { return drain_report_; }
  /// Drop a pending drain deadline (host shutting down).
  void cancel_drain_deadline();

  // --- Wake-ups ------------------------------------------------------------

  bool has_deadline() const { return !wheel_.empty(); }
  /// Earliest pending deadline; only meaningful when has_deadline().
  std::int64_t next_due() const { return wheel_.next_due(); }
  /// DeadlineWheel::next_timeout_ms convention (-1 none, 0 overdue).
  int next_timeout_ms(std::int64_t now) const {
    return wheel_.next_timeout_ms(now);
  }
  /// Run every deadline due at `now`.
  void fire_due(std::int64_t now) { wheel_.fire_due(now); }

 private:
  void stream_window(RelaySession& s, std::uint64_t took, std::int64_t now);
  void flush_stream_window(RelaySession& s, std::int64_t now);
  void on_deadline(RelaySession& s, live::DeadlineKind kind);
  void on_drain_deadline(std::int64_t due);
  void maybe_finish_drain(std::int64_t now);
  void end(RelaySession& s, std::int64_t now);
  /// Retire a relay without counting it (the husk of a resume adoption).
  void retire(RelaySession& s, std::int64_t now);
  double sec(std::int64_t ns) const { return config_.span_seconds(ns); }

  CoreConfig config_;
  LifecycleStats& stats_;
  AbortHook abort_;
  DrainHook drain_done_hook_;
  span::Tracer* tracer_ = nullptr;
  live::LiveMetrics* live_metrics_ = nullptr;
  live::DeadlineWheel wheel_;

  RelaySession* head_ = nullptr;
  RelaySession* tail_ = nullptr;
  std::size_t live_count_ = 0;
  /// Parked relays by session id (last parker wins).
  std::map<core::SessionId, RelaySession*> parked_;

  bool draining_ = false;
  bool drain_done_ = false;
  std::int64_t drain_start_ns_ = 0;
  live::DrainReport drain_report_;
  live::DeadlineWheel::Token drain_token_ = live::DeadlineWheel::kInvalidToken;
};

}  // namespace lsl::relay
