#include "lsl/depot.hpp"

#include <algorithm>
#include <cassert>

#include "util/log.hpp"

namespace lsl::core {

namespace {

relay::CoreConfig core_config(const DepotConfig& c) {
  relay::CoreConfig cc;
  cc.name = "depot";
  cc.liveness = c.liveness;
  cc.resume_grace_ns = c.resume_grace;
  cc.span_seconds = [](std::int64_t t) { return util::to_seconds(t); };
  return cc;
}

}  // namespace

DepotApp::DepotApp(tcp::TcpStack& stack, DepotConfig config,
                   SessionDirectory* dir)
    : stack_(stack),
      config_(config),
      dir_(dir),
      budget_(config.pool_budget_bytes, config.pool_low_watermark,
              config.pool_high_watermark),
      core_(core_config(config_), stats_,
            [this](relay::RelaySession& s, relay::FailReason why) {
              fail_relay(static_cast<Relay&>(s), why);
            },
            [this](const live::DrainReport& rep) {
              if (on_drain_done) on_drain_done(rep);
            }) {
  stack_.listen(config_.port,
                [this](tcp::TcpSocket* s) { on_accept(s); });
}

void DepotApp::on_accept(tcp::TcpSocket* up) {
  if (!core_.admit()) {
    up->abort();
    return;
  }
  if (accept_drops_ > 0) {
    --accept_drops_;
    ++stats_.sessions_refused;
    up->abort();
    return;
  }
  if (config_.max_sessions > 0 && core_.live_count() >= config_.max_sessions) {
    ++stats_.sessions_refused;
    up->abort();
    return;
  }
  if (budget_.under_pressure()) {
    // Memory admission control, mirroring the real daemon: refuse (RST)
    // while buffered bytes sit over the high watermark, so the source's
    // RetryPolicy backs off instead of the depot overcommitting.
    ++stats_.sessions_refused_memory;
    up->abort();
    return;
  }
  auto relay = std::make_unique<Relay>();
  Relay* r = relay.get();
  r->up = up;
  relays_.push_back(std::move(relay));
  core_.accept(*r, now());
  arm_live_timer();

  const bool real = up->config().carry_data;
  if (!real) {
    // peek/consume split: only erase the directory entry once this relay
    // actually adopts the session, so a failed adoption leaves the entry
    // for the client's republish-and-reconnect cycle (resume).
    auto h = dir_ != nullptr ? dir_->peek(up->remote()) : std::nullopt;
    if (!h) {
      LSL_LOG_ERROR("depot: virtual session without published header");
      fail_relay(*r, relay::FailReason::kHeader);
      return;
    }
    dir_->consume(up->remote());
    r->header = std::move(*h);
    r->header_virtual_left = r->header->encoded_size();
  }

  up->on_readable = [this, r] { pull_upstream(*r); };
  up->on_error = [this, r](tcp::TcpError) { on_upstream_error(*r); };
  if (up->readable() > 0 || up->eof()) pull_upstream(*r);
}

void DepotApp::pull_upstream(Relay& r) {
  if (r.done()) return;
  const bool real = r.up->config().carry_data;

  // Phase 1: ingest the LSL header.
  if (!r.header_done) {
    if (real) {
      std::uint8_t buf[512];
      while (r.up->readable() > 0) {
        std::size_t want = kHeaderPrefixBytes > r.header_buf.size()
                               ? kHeaderPrefixBytes - r.header_buf.size()
                               : 0;
        if (want == 0) {
          const auto len = header_length(r.header_buf);
          if (!len) {
            LSL_LOG_ERROR("depot: malformed LSL header");
            fail_relay(r, relay::FailReason::kHeader);
            return;
          }
          if (r.header_buf.size() >= *len) {
            r.header = decode_header(r.header_buf);
            if (!r.header) {
              fail_relay(r, relay::FailReason::kHeader);
              return;
            }
            core_.header_parsed(r, *r.header, now());
            break;
          }
          want = *len - r.header_buf.size();
        }
        const std::size_t got = r.up->recv(std::span<std::uint8_t>(
            buf, std::min(want, sizeof(buf))));
        if (got == 0) break;
        r.header_buf.insert(r.header_buf.end(), buf, buf + got);
      }
    } else {
      const std::uint64_t got = r.up->recv_virtual(r.header_virtual_left);
      r.header_virtual_left -= got;
      if (r.header_virtual_left == 0) core_.header_parsed(r, *r.header, now());
    }
    if (!r.header_done) {
      // Truncated header.
      if (r.up->eof()) fail_relay(r, relay::FailReason::kHeader);
      return;
    }
  }

  if (r.state == relay::RelayState::kHeader) {
    // Phase 2a: a resume header re-binds an existing parked session
    // instead of dialing a new downstream path.
    if (r.header->is_resume()) {
      try_resume(r);
      return;  // `r` is a husk either way; the merged relay carries on
    }

    // Phase 2b: dial the next hop as soon as the header is known, after
    // the daemon's per-session processing delay.
    core_.dial(r, now());
    arm_live_timer();
    if (config_.session_setup_latency > 0) {
      Relay* rp = &r;
      stack_.sim().events().schedule_in(config_.session_setup_latency,
                                        [this, rp] {
                                          if (!rp->done()) {
                                            dial_downstream(*rp);
                                          }
                                        });
    } else {
      dial_downstream(r);
    }
  }

  // Phase 3: relay payload through the bounded buffer with the copy model.
  pull_payload(r, /*ignore_space=*/false);
  sync_liveness(r);
  arm_live_timer();

  if (r.up->eof()) {
    r.up_eof = true;
    maybe_complete(r);
  }
}

void DepotApp::pull_payload(Relay& r, bool ignore_space) {
  // A stalled (slow-fault) depot stops relaying, but parked-session salvage
  // (ignore_space) still runs: those bytes were acked and must not be lost.
  if (stalled_ && !ignore_space) return;
  const bool real = r.up->config().carry_data;
  while (r.up->readable() > 0) {
    std::uint64_t space = ~std::uint64_t{0};
    if (!ignore_space) {
      space = config_.buffer_bytes > buffered(r)
                  ? config_.buffer_bytes - buffered(r)
                  : 0;
      space = std::min(space, budget_.headroom());
      if (space == 0) {
        begin_stall(r);
        return;  // backpressure: upstream window will close
      }
    }
    end_stall(r);

    const std::uint64_t want =
        std::min<std::uint64_t>({space, r.up->readable(), 64 * util::kKiB});
    std::vector<std::uint8_t> chunk;
    std::uint64_t got = 0;
    if (real) {
      chunk.resize(static_cast<std::size_t>(want));
      got = r.up->recv(chunk);
      chunk.resize(static_cast<std::size_t>(got));
    } else {
      got = r.up->recv_virtual(want);
    }
    if (got == 0) break;
    r.live.note_activity(now());

    // Drop the duplicated prefix of a resumed session.
    const std::uint64_t drop = r.absorb(got);
    if (drop > 0) {
      stats_.bytes_discarded += drop;
      got -= drop;
      if (real) {
        chunk.erase(chunk.begin(),
                    chunk.begin() + static_cast<long>(drop));
      }
      if (got == 0) continue;
    }

    // Serial copy resource, shared by all of the daemon's relays: chunks
    // become downstream-eligible in FIFO order after the wakeup latency and
    // the proportional copy time, and concurrent sessions queue behind one
    // another for the host's copy bandwidth.
    auto& ev = stack_.sim().events();
    const util::SimTime start =
        std::max(now() + config_.wakeup_latency, copy_busy_until_);
    const util::SimTime ready_at =
        start + config_.copy_rate.transmission_time(got);
    if (metrics_) {
      // Wait behind the daemon's serial copy resource, beyond the fixed
      // wakeup latency every pull pays — the §VII contention signal.
      const util::SimTime queued_from = now() + config_.wakeup_latency;
      metrics_->copy_queue_delay_ms->observe(
          util::to_millis(start > queued_from ? start - queued_from : 0));
    }
    copy_busy_until_ = ready_at;
    // Salvage pulls (ignore_space) may overshoot the budget: those bytes
    // were acked to the sender and must not be dropped. Bounded pulls were
    // clamped to headroom above, so the non-forced reserve cannot fail.
    const bool reserved = budget_.reserve(got, /*force=*/ignore_space);
    assert(reserved);
    (void)reserved;
    r.in_copy_bytes += got;
    stats_.max_buffered = std::max(stats_.max_buffered, buffered(r));
    note_occupancy(r);
    Relay* rp = &r;
    ev.schedule_at(ready_at,
                   [this, rp, got, c = std::move(chunk)]() mutable {
                     copy_complete(*rp, got, std::move(c));
                   });
  }
}

void DepotApp::dial_downstream(Relay& r) {
  assert(r.header);
  const bool real = r.up->config().carry_data;

  const SessionHeader fwd = r.header->popped();
  const HopAddress next = r.header->next_hop();
  const sim::Endpoint next_ep{static_cast<sim::NodeId>(next.addr), next.port};

  r.down = stack_.connect(next_ep);
  if (!real && dir_ != nullptr) {
    dir_->publish(r.down->local(), fwd);
  }
  if (real) {
    encode_header(fwd, r.fwd_header);
  } else {
    r.fwd_virtual_left = fwd.encoded_size();
  }

  Relay* rp = &r;
  r.down->on_established = [this, rp] {
    core_.connected(*rp, now());
    pump_downstream(*rp);
  };
  r.down->on_writable = [this, rp] { pump_downstream(*rp); };
  r.down->on_error = [this, rp](tcp::TcpError) {
    fail_relay(*rp, relay::FailReason::kPeerReset);
  };
  if (on_downstream_open) on_downstream_open(r.down);
}

void DepotApp::copy_complete(Relay& r, std::uint64_t bytes,
                             std::vector<std::uint8_t> chunk) {
  if (r.done()) return;
  r.in_copy_bytes -= bytes;
  r.ready_bytes += bytes;
  if (!chunk.empty()) r.ready_chunks.push_back(std::move(chunk));
  note_occupancy(r);
  pump_downstream(r);
}

void DepotApp::pump_downstream(Relay& r) {
  if (r.done() || r.down == nullptr ||
      r.state != relay::RelayState::kStream || stalled_) {
    if (!r.done()) {
      sync_liveness(r);
      arm_live_timer();
    }
    return;
  }
  const bool real = r.down->config().carry_data;
  const std::uint64_t relayed_before = stats_.bytes_relayed;

  // Forwarded header goes first.
  if (real && r.fwd_off < r.fwd_header.size()) {
    const std::size_t took = r.down->send(std::span<const std::uint8_t>(
        r.fwd_header.data() + r.fwd_off, r.fwd_header.size() - r.fwd_off));
    r.fwd_off += took;
    if (r.fwd_off < r.fwd_header.size()) return;
  }
  if (!real && r.fwd_virtual_left > 0) {
    const std::uint64_t took = r.down->send_virtual(r.fwd_virtual_left);
    r.fwd_virtual_left -= took;
    if (r.fwd_virtual_left > 0) return;
  }

  // Then buffered payload.
  bool freed = false;
  if (real) {
    while (!r.ready_chunks.empty()) {
      auto& front = r.ready_chunks.front();
      const std::size_t remaining = front.size() - r.ready_consumed;
      const std::size_t took = r.down->send(std::span<const std::uint8_t>(
          front.data() + r.ready_consumed, remaining));
      if (took == 0) break;
      r.ready_consumed += took;
      r.ready_bytes -= took;
      budget_.release(took);
      stats_.bytes_relayed += took;
      if (metrics_) metrics_->bytes_relayed->inc(took);
      core_.note_stream(r, took, now());
      freed = true;
      if (r.ready_consumed == front.size()) {
        r.ready_chunks.pop_front();
        r.ready_consumed = 0;
      }
    }
  } else {
    while (r.ready_bytes > 0) {
      const std::uint64_t took = r.down->send_virtual(r.ready_bytes);
      if (took == 0) break;
      r.ready_bytes -= took;
      budget_.release(took);
      stats_.bytes_relayed += took;
      if (metrics_) metrics_->bytes_relayed->inc(took);
      core_.note_stream(r, took, now());
      freed = true;
    }
  }

  if (freed) {
    end_stall(r);  // ring space exists again; reads may resume
    if (metrics_) note_occupancy(r);
    schedule_progress();
    // Space freed: resume reading from upstream (we may have declined
    // earlier).
    if (r.up != nullptr && r.up->readable() > 0) pull_upstream(r);
  }
  if (stats_.bytes_relayed != relayed_before) {
    r.live.note_progress(stats_.bytes_relayed - relayed_before);
    r.live.note_activity(now());
  }
  sync_liveness(r);
  arm_live_timer();

  maybe_complete(r);
}

void DepotApp::schedule_progress() {
  if (!on_progress || progress_scheduled_) return;
  progress_scheduled_ = true;
  stack_.sim().events().schedule_in(0, [this] {
    progress_scheduled_ = false;
    if (on_progress) on_progress(stats_.bytes_relayed);
  });
}

void DepotApp::crash() {
  if (crashed_) return;
  crashed_ = true;
  stack_.close_listener(config_.port);
  // Failing a relay also drops it from the park registry; afterwards
  // nothing resumable is left.
  for (std::size_t i = 0; i < relays_.size(); ++i) {
    Relay* r = relays_[i].get();
    if (!r->done()) fail_relay(*r, relay::FailReason::kOther);
  }
}

void DepotApp::restart() {
  if (!crashed_) return;
  crashed_ = false;
  stack_.listen(config_.port, [this](tcp::TcpSocket* s) { on_accept(s); });
}

void DepotApp::set_stalled(bool stalled) {
  if (stalled_ == stalled) return;
  stalled_ = stalled;
  if (stalled_) {
    // A stalled depot should be moving bytes and is not — exactly what the
    // progress watchdog exists to catch; re-sync so it starts counting.
    for (std::size_t i = 0; i < relays_.size(); ++i) {
      Relay* r = relays_[i].get();
      if (r->done() || r->parked) continue;
      sync_liveness(*r);
    }
    arm_live_timer();
    return;
  }
  // Un-stall: kick every live relay; pending ready bytes flow again and
  // upstream reads that were declined resume.
  for (std::size_t i = 0; i < relays_.size(); ++i) {
    Relay* r = relays_[i].get();
    if (r->done() || r->parked) continue;
    pump_downstream(*r);
    if (!r->done() && r->up != nullptr && r->up->readable() > 0) {
      pull_upstream(*r);
    }
  }
  arm_live_timer();
}

void DepotApp::inject_upstream_reset() {
  for (std::size_t i = 0; i < relays_.size(); ++i) {
    Relay* r = relays_[i].get();
    if (r->done() || r->parked || !r->header_done || r->up == nullptr) {
      continue;
    }
    // Enter the error path while the socket's receive buffer is intact so
    // park_relay() can salvage acked bytes, then RST the peer. The abort's
    // own error callback is harmless afterwards: parked and failed relays
    // return from on_upstream_error immediately.
    tcp::TcpSocket* up = r->up;
    on_upstream_error(*r);
    if (up->state() != tcp::TcpState::kClosed) up->abort();
  }
}

void DepotApp::on_upstream_error(Relay& r) {
  if (r.done() || r.parked) return;
  // A session parks until its upstream EOF — after EOF the source has
  // nothing left to resume.
  if (!r.up_eof && core_.parkable(r)) {
    park_relay(r);
    return;
  }
  fail_relay(r, relay::FailReason::kPeerReset);
}

void DepotApp::park_relay(Relay& r) {
  // Salvage everything the dead connection's TCP had already received in
  // order — those bytes were acknowledged to the sender, so the resumed
  // connection will not carry them again. The ring may temporarily exceed
  // its configured bound here; that is the price of not losing acked data.
  pull_payload(r, /*ignore_space=*/true);
  end_stall(r);  // a parked relay is waiting for resume, not for ring space
  core_.park(r, now());
  arm_live_timer();
  pump_downstream(r);
}

void DepotApp::try_resume(Relay& fresh) {
  relay::RelaySession* s =
      core_.resume(fresh, fresh.header->resume_offset, now());
  if (s == nullptr) return;  // refused: the core failed `fresh`
  Relay* old = static_cast<Relay*>(s);

  // Re-bind the fresh upstream connection to the parked relay.
  old->up = fresh.up;
  old->up->on_readable = [this, old] { pull_upstream(*old); };
  old->up->on_error = [this, old](tcp::TcpError) { on_upstream_error(*old); };

  // Neutralize the husk so its callbacks never fire again; any bytes it
  // buffered die with it.
  budget_.release(buffered(fresh));
  fresh.up = nullptr;

  arm_live_timer();
  pull_upstream(*old);
}

void DepotApp::maybe_complete(Relay& r) {
  if (r.done() || r.parked) return;
  if (r.up_eof && r.in_copy_bytes == 0 && r.ready_bytes == 0 &&
      r.fwd_virtual_left == 0 &&
      (r.fwd_header.empty() || r.fwd_off == r.fwd_header.size())) {
    if (r.down == nullptr || r.state != relay::RelayState::kStream) {
      // EOF before the downstream is up. If the dial is pending (setup
      // latency or handshake in flight), wait — pump_downstream() re-invokes
      // us on establishment. Only an undialed relay (truncated session) is
      // a failure.
      if (r.state == relay::RelayState::kHeader) {
        fail_relay(r, relay::FailReason::kHeader);
      }
      return;
    }
    end_stall(r);
    core_.finish(r, relay::FailReason::kNone, now());
    arm_live_timer();
    if (metrics_) {
      metrics_->relay_latency_ms->observe(
          util::to_millis(now() - r.accept_ns));
    }
    r.down->close();
    r.up->close();  // completes the upstream FIN handshake from our side
  }
}

void DepotApp::begin_stall(Relay& r) {
  if (r.stall_since >= 0) return;  // already stalled
  r.stall_since = now();
  ++stats_.backpressure_stalls;
  if (metrics_) metrics_->backpressure_stalls->inc();
}

void DepotApp::end_stall(Relay& r) {
  if (r.stall_since < 0) return;
  const util::SimDuration stalled = now() - r.stall_since;
  r.stall_since = -1;
  stats_.backpressure_stall_time += stalled;
  if (metrics_) {
    metrics_->stall_time_ns->inc(static_cast<std::uint64_t>(stalled));
  }
}

void DepotApp::note_occupancy(const Relay& r) {
  if (!metrics_) return;
  metrics_->ring_occupancy_bytes->set(static_cast<double>(buffered(r)));
  metrics_->copy_queue_bytes->set(static_cast<double>(r.in_copy_bytes));
}

void DepotApp::fail_relay(Relay& r, relay::FailReason why) {
  if (r.done()) return;
  // The relay's buffered bytes are dead; hand their budget back now so
  // live sessions (and new admissions) see the space immediately. Late
  // copy_complete events on this relay return without touching accounts.
  budget_.release(buffered(r));
  end_stall(r);
  core_.finish(r, why, now());
  arm_live_timer();
  if (r.up != nullptr && r.up->state() != tcp::TcpState::kClosed) {
    r.up->abort();
  }
  if (r.down != nullptr && r.down->state() != tcp::TcpState::kClosed) {
    r.down->abort();
  }
}

void DepotApp::sync_liveness(Relay& r) {
  // "Should be progressing" = there are bytes the downstream ought to be
  // absorbing. A stalled (slow-fault) depot also ought to be progressing —
  // that is precisely the condition the watchdog exists to expose.
  const bool staged =
      r.state == relay::RelayState::kStream &&
      (stalled_ || buffered(r) > 0 || r.fwd_virtual_left > 0 ||
       r.fwd_off < r.fwd_header.size());
  core_.watch(r, staged, now());
}

void DepotApp::arm_live_timer() {
  if (!core_.has_deadline()) {
    if (live_event_ != sim::kInvalidEvent) {
      stack_.sim().events().cancel(live_event_);
      live_event_ = sim::kInvalidEvent;
    }
    return;
  }
  const util::SimTime due = std::max<util::SimTime>(core_.next_due(), now());
  if (live_event_ != sim::kInvalidEvent) {
    if (live_event_due_ == due) return;
    stack_.sim().events().cancel(live_event_);
  }
  live_event_due_ = due;
  live_event_ = stack_.sim().events().schedule_at(due, [this] {
    live_event_ = sim::kInvalidEvent;
    core_.fire_due(now());
    arm_live_timer();
  });
}

void DepotApp::begin_drain() {
  core_.begin_drain(now());
  arm_live_timer();
}

}  // namespace lsl::core
