#include "relay/relay_core.hpp"

#include <utility>
#include <vector>

#include "util/log.hpp"

namespace lsl::relay {

const char* to_string(RelayState s) {
  switch (s) {
    case RelayState::kHeader: return "HEADER";
    case RelayState::kDial: return "DIAL";
    case RelayState::kStream: return "STREAM";
    case RelayState::kDone: return "DONE";
  }
  return "?";
}

const util::TransitionTable<RelayState, kRelayStateCount>&
relay_transition_table() {
  using S = RelayState;
  static const util::TransitionTable<RelayState, kRelayStateCount> table{
      "lsd-relay", to_string, {
          {S::kHeader, S::kDial},    // header parsed, dialing downstream
          {S::kDial, S::kStream},    // downstream connect completed
          // finish() is legal from every live state; kDone is terminal —
          // there is deliberately no edge out of it.
          {S::kHeader, S::kDone},
          {S::kDial, S::kDone},
          {S::kStream, S::kDone},
      }};
  return table;
}

LifecycleStats operator+(const LifecycleStats& a, const LifecycleStats& b) {
  LifecycleStats s;
  s.sessions_accepted = a.sessions_accepted + b.sessions_accepted;
  s.sessions_completed = a.sessions_completed + b.sessions_completed;
  s.sessions_failed = a.sessions_failed + b.sessions_failed;
  s.fail_dial = a.fail_dial + b.fail_dial;
  s.fail_header = a.fail_header + b.fail_header;
  s.fail_peer_reset = a.fail_peer_reset + b.fail_peer_reset;
  s.fail_timeout = a.fail_timeout + b.fail_timeout;
  s.fail_other = a.fail_other + b.fail_other;
  s.sessions_parked = a.sessions_parked + b.sessions_parked;
  s.sessions_resumed = a.sessions_resumed + b.sessions_resumed;
  s.sessions_refused_drain =
      a.sessions_refused_drain + b.sessions_refused_drain;
  s.timeouts_header = a.timeouts_header + b.timeouts_header;
  s.timeouts_dial = a.timeouts_dial + b.timeouts_dial;
  s.timeouts_idle = a.timeouts_idle + b.timeouts_idle;
  s.timeouts_stall = a.timeouts_stall + b.timeouts_stall;
  return s;
}

RelayCore::RelayCore(const CoreConfig& config, LifecycleStats& stats,
                     AbortHook abort, DrainHook drain_done)
    : config_(config),
      stats_(stats),
      abort_(std::move(abort)),
      drain_done_hook_(std::move(drain_done)) {}

bool RelayCore::admit() {
  if (!draining_) return true;
  // A draining depot finishes what it has but adopts nothing new; the
  // host's reset sends the source to its retry policy (and another depot).
  ++stats_.sessions_refused_drain;
  ++drain_report_.refused;
  return false;
}

void RelayCore::accept(RelaySession& s, std::int64_t now) {
  ++stats_.sessions_accepted;
  s.accept_ns = now;
  s.prev_ = tail_;
  if (tail_ != nullptr) {
    tail_->next_ = &s;
  } else {
    head_ = &s;
  }
  tail_ = &s;
  ++live_count_;
  s.live.attach(&wheel_, &config_.liveness,
                [this, &s](live::DeadlineKind k) { on_deadline(s, k); });
  if (live_metrics_ != nullptr) {
    s.live.set_rate_hook([this](double bps) {
      // Gauge min-tracking makes this the slowest-relay figure: every
      // watchdog window reports its rate, and `min` keeps the floor.
      live_metrics_->slowest_relay_bps->set(bps);
    });
  }
  s.live.on_accepted(now);
}

void RelayCore::header_parsed(RelaySession& s, const core::SessionHeader& h,
                              std::int64_t now) {
  s.header_done = true;
  s.session = h.session;
  s.trace_id = h.trace_id;
  if (h.stripe) s.stripe_lane = h.stripe->stripe_id;
  if (tracer_ != nullptr && s.trace_id != 0) {
    // Backfilled: the interval opened at accept, but the join key only
    // exists once the header is parsed.
    tracer_->mark(s.trace_id, span::kSpanAccept, sec(s.accept_ns));
    tracer_->emit(s.trace_id, span::kSpanHeaderRead, sec(s.accept_ns),
                  sec(now));
  }
}

void RelayCore::dial(RelaySession& s, std::int64_t now) {
  s.state.transition(RelayState::kDial);
  s.dial_start_ns = now;
  // The dial deadline covers any setup delay plus the handshake.
  s.live.on_header_done(now);
}

void RelayCore::connected(RelaySession& s, std::int64_t now) {
  s.state.transition(RelayState::kStream);
  s.live.on_connected(now);
  if (tracer_ != nullptr && s.trace_id != 0) {
    // The same interval the dial liveness deadline bounds.
    tracer_->emit(s.trace_id, span::kSpanDial, sec(s.dial_start_ns),
                  sec(now));
  }
}

void RelayCore::stream_window(RelaySession& s, std::uint64_t took,
                              std::int64_t now) {
  // One stream-window span per kStreamWindowBytes of relayed payload; the
  // window opens at the first byte after the previous close so idle gaps
  // between windows stay visible in the timeline.
  if (s.window_open_ns_ < 0) {
    s.window_open_ns_ = now;
    s.window_base_ = s.relayed - took;
  }
  if (s.relayed - s.window_base_ >= span::kStreamWindowBytes) {
    tracer_->emit(s.trace_id, span::stream_window_name(s.stripe_lane),
                  sec(s.window_open_ns_), sec(now), s.relayed);
    s.window_open_ns_ = -1;
  }
}

void RelayCore::flush_stream_window(RelaySession& s, std::int64_t now) {
  if (tracer_ == nullptr || s.trace_id == 0 || s.window_open_ns_ < 0) return;
  tracer_->emit(s.trace_id, span::stream_window_name(s.stripe_lane),
                sec(s.window_open_ns_), sec(now), s.relayed);
  s.window_open_ns_ = -1;
}

bool RelayCore::parkable(const RelaySession& s) const {
  return config_.resume_grace_ns > 0 && !s.parked &&
         (s.state == RelayState::kDial || s.state == RelayState::kStream) &&
         s.session.valid();
}

void RelayCore::park(RelaySession& s, std::int64_t now) {
  LSL_PRECONDITION(parkable(s), "parking a relay that cannot resume");
  flush_stream_window(s, now);
  s.parked = true;
  if (tracer_ != nullptr && s.trace_id != 0) {
    tracer_->mark(s.trace_id, span::kSpanPark, sec(now), s.payload_pulled);
  }
  // A parked relay is deliberately dormant: its clock is the resume grace,
  // not the liveness deadlines.
  s.live.cancel_all();
  s.park_deadline_ns_ = now + config_.resume_grace_ns;
  s.park_token_ = wheel_.schedule(s.park_deadline_ns_, [this, &s] {
    s.park_token_ = live::DeadlineWheel::kInvalidToken;
    if (!s.parked) return;
    LSL_LOG_WARN("%s: parked session %s expired unresumed", config_.name,
                 s.session.hex().c_str());
    abort_(s, FailReason::kPeerReset);
  });
  parked_[s.session] = &s;
  ++stats_.sessions_parked;
  LSL_LOG_INFO("%s: parked session %s at offset %llu", config_.name,
               s.session.hex().c_str(),
               static_cast<unsigned long long>(s.payload_pulled));
  // A drain treats parking as resolution: the session's fate now rests
  // with a future resume against whoever replaces this daemon.
  maybe_finish_drain(now);
}

RelaySession* RelayCore::resume(RelaySession& fresh, std::uint64_t offset,
                                std::int64_t now) {
  const auto it = parked_.find(fresh.session);
  if (it == parked_.end()) {
    LSL_LOG_WARN("%s: resume refused: unknown or expired session %s",
                 config_.name, fresh.session.hex().c_str());
    abort_(fresh, FailReason::kHeader);
    return nullptr;
  }
  RelaySession& p = *it->second;
  if (offset > p.payload_pulled) {
    // The source claims bytes this relay never secured — lost in flight
    // when the old connection died. Refusing this connection keeps the
    // stream gap-free; the parked session stays resumable until its grace
    // expires, so a reconnect with an honest offset can still land.
    LSL_LOG_WARN("%s: resume refused: offset %llu beyond pulled %llu",
                 config_.name, static_cast<unsigned long long>(offset),
                 static_cast<unsigned long long>(p.payload_pulled));
    abort_(fresh, FailReason::kHeader);
    return nullptr;
  }
  p.discard_left = p.payload_pulled - offset;
  p.parked = false;
  wheel_.cancel(p.park_token_);
  p.park_token_ = live::DeadlineWheel::kInvalidToken;
  parked_.erase(it);
  ++stats_.sessions_resumed;
  LSL_LOG_INFO("%s: resumed session %s from offset %llu (discarding %llu)",
               config_.name, p.session.hex().c_str(),
               static_cast<unsigned long long>(offset),
               static_cast<unsigned long long>(p.discard_left));
  // Back in the stream phase: the idle/stall watchdog restarts from the
  // resume instant.
  p.live.on_connected(now);
  if (tracer_ != nullptr && p.trace_id != 0) {
    tracer_->mark(p.trace_id, span::kSpanResume, sec(now), offset);
  }
  // The connection that carried the resume header is done; it counts as
  // neither a completed nor a failed session.
  retire(fresh, now);
  return &p;
}

void RelayCore::expire_parked(std::int64_t now) {
  std::vector<RelaySession*> expired;
  for (const auto& [id, s] : parked_) {
    if (s->park_deadline_ns_ <= now) expired.push_back(s);
  }
  for (RelaySession* s : expired) {
    LSL_LOG_WARN("%s: parked session %s expired unresumed", config_.name,
                 s->session.hex().c_str());
    abort_(*s, FailReason::kPeerReset);
  }
}

void RelayCore::end(RelaySession& s, std::int64_t now) {
  flush_stream_window(s, now);
  s.state.transition(RelayState::kDone);
  if (s.parked) {
    const auto it = parked_.find(s.session);
    if (it != parked_.end() && it->second == &s) parked_.erase(it);
    s.parked = false;
  }
  s.live.cancel_all();
  wheel_.cancel(s.park_token_);
  s.park_token_ = live::DeadlineWheel::kInvalidToken;
  (s.prev_ != nullptr ? s.prev_->next_ : head_) = s.next_;
  (s.next_ != nullptr ? s.next_->prev_ : tail_) = s.prev_;
  s.prev_ = s.next_ = nullptr;
  --live_count_;
}

void RelayCore::finish(RelaySession& s, FailReason why, std::int64_t now) {
  if (s.done()) return;
  end(s, now);
  switch (why) {
    case FailReason::kNone:
      ++stats_.sessions_completed;
      if (draining_ && !drain_done_) ++drain_report_.completed;
      break;
    case FailReason::kDial: ++stats_.fail_dial; break;
    case FailReason::kHeader: ++stats_.fail_header; break;
    case FailReason::kPeerReset: ++stats_.fail_peer_reset; break;
    case FailReason::kTimeout: ++stats_.fail_timeout; break;
    case FailReason::kOther: ++stats_.fail_other; break;
  }
  if (why != FailReason::kNone) ++stats_.sessions_failed;
  maybe_finish_drain(now);
}

void RelayCore::retire(RelaySession& s, std::int64_t now) {
  if (s.done()) return;
  end(s, now);
  maybe_finish_drain(now);
}

void RelayCore::on_deadline(RelaySession& s, live::DeadlineKind kind) {
  if (s.done() || s.parked) return;
  LSL_LOG_WARN("%s: %s deadline expired for session %s", config_.name,
               live::to_string(kind),
               s.header_done ? s.session.hex().c_str() : "<none>");
  switch (kind) {
    case live::DeadlineKind::kHeader: ++stats_.timeouts_header; break;
    case live::DeadlineKind::kDial: ++stats_.timeouts_dial; break;
    case live::DeadlineKind::kIdle: ++stats_.timeouts_idle; break;
    case live::DeadlineKind::kStall: ++stats_.timeouts_stall; break;
    case live::DeadlineKind::kDrain:
      return;  // daemon-wide; handled by on_drain_deadline
  }
  if (live_metrics_ != nullptr) live_metrics_->on_timeout(kind);
  abort_(s, FailReason::kTimeout);
}

void RelayCore::begin_drain(std::int64_t now) {
  if (draining_) return;
  draining_ = true;
  drain_done_ = false;
  drain_start_ns_ = now;
  drain_report_ = {};
  drain_report_.in_flight_at_start = live_count_ - parked_.size();
  if (live_metrics_ != nullptr) live_metrics_->drains_started->inc();
  LSL_LOG_INFO("%s: drain started, %llu sessions in flight", config_.name,
               static_cast<unsigned long long>(
                   drain_report_.in_flight_at_start));
  if (config_.liveness.drain_deadline > 0) {
    const std::int64_t due = now + config_.liveness.drain_deadline;
    drain_token_ = wheel_.schedule(due, [this, due] {
      drain_token_ = live::DeadlineWheel::kInvalidToken;
      on_drain_deadline(due);
    });
  }
  maybe_finish_drain(now);
}

void RelayCore::cancel_drain_deadline() {
  wheel_.cancel(drain_token_);
  drain_token_ = live::DeadlineWheel::kInvalidToken;
}

void RelayCore::maybe_finish_drain(std::int64_t now) {
  if (!draining_ || drain_done_) return;
  if (live_count_ > parked_.size()) return;  // live sessions remain
  drain_done_ = true;
  drain_report_.parked = parked_.size();
  cancel_drain_deadline();
  if (live_metrics_ != nullptr && !drain_report_.expired) {
    live_metrics_->drains_completed->inc();
  }
  if (tracer_ != nullptr) {
    // Trace id 0 = node scope: the drain belongs to the daemon, not to any
    // one session flowing through it.
    tracer_->emit(0, span::kSpanDrain, sec(drain_start_ns_), sec(now),
                  drain_report_.completed);
  }
  LSL_LOG_INFO("%s: %s", config_.name, drain_report_.summary().c_str());
  if (drain_done_hook_) drain_done_hook_(drain_report_);
}

void RelayCore::on_drain_deadline(std::int64_t due) {
  if (!draining_ || drain_done_) return;
  drain_report_.expired = true;
  if (live_metrics_ != nullptr) {
    live_metrics_->on_timeout(live::DeadlineKind::kDrain);
  }
  // Sessions that neither finished nor parked in time are torn down the
  // hard way — the drain's whole point is a bounded exit.
  std::vector<RelaySession*> stragglers;
  for (RelaySession* s = head_; s != nullptr; s = s->next_) {
    if (!s->parked) stragglers.push_back(s);
  }
  drain_report_.aborted = stragglers.size();
  LSL_LOG_WARN("%s: drain deadline expired; aborting %zu straggler(s)",
               config_.name, stragglers.size());
  for (RelaySession* s : stragglers) abort_(*s, FailReason::kOther);
  maybe_finish_drain(due);
}

}  // namespace lsl::relay
