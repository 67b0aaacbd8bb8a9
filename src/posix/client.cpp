#include "posix/client.hpp"

#include <linux/sockios.h>
#include <sys/epoll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <system_error>

#include "stripe/plan.hpp"
#include "stripe/reassemble.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace lsl::posix {

// --- PosixSource -------------------------------------------------------------

PosixSource::PosixSource(EpollLoop& loop, PosixSourceConfig config)
    : loop_(loop),
      config_(std::move(config)),
      generator_(config_.payload_seed) {
  // Striped lanes recover from loss above this layer (a replacement lane
  // on a spare chain), never via kFlagResume.
  if (config_.stripe) config_.resumable = false;
  // An MD5 trailer hashes the whole stream through one connection; it
  // cannot rewind to a resume offset. Content verification for resumable
  // sessions comes from the sink's seeded generator instead.
  if (config_.resumable) config_.send_digest = false;
}

PosixSource::~PosixSource() {
  if (sock_.valid()) loop_.remove(sock_.get());
}

void PosixSource::start() {
  if (config_.session) {
    session_ = *config_.session;
  } else {
    util::Rng rng(config_.payload_seed ^ 0xabcdef);
    session_ = core::SessionId::generate(rng);
  }
  open_connection(0);
}

void PosixSource::open_connection(std::uint64_t offset) {
  staged_.clear();
  staged_len_ = 0;
  staged_off_ = 0;
  wire_written_ = 0;
  conn_offset_ = offset;
  acked_floor_ = std::max(acked_floor_, offset);
  write_done_ = false;
  payload_left_ = config_.payload_bytes - offset;
  generator_.seek(offset);

  const bool use_header = !config_.route.empty() || config_.send_digest ||
                          config_.resumable || config_.stripe.has_value();
  if (use_header) {
    core::SessionHeader h;
    h.session = session_;
    h.trace_id = config_.trace_id;
    h.stripe = config_.stripe;
    if (config_.send_digest) h.flags |= core::kFlagDigestTrailer;
    if (migrated_) {
      // A migrate connection is an ordinary session to every depot on the
      // fresh chain — only the sink (in adopt mode) splices it onto the
      // original stream at `offset`. payload_length is the REMAINDER, so
      // total = resume_offset + payload_length (docs/PROTOCOL.md, bit 3).
      h.flags |= core::kFlagMigrate;
      h.resume_offset = offset;
      h.payload_length = config_.payload_bytes - offset;
    } else {
      if (offset > 0) {
        h.flags |= core::kFlagResume;
        h.resume_offset = offset;
      }
      h.payload_length = config_.payload_bytes;
    }
    for (std::size_t i = 1; i < config_.route.size(); ++i) {
      h.hops.push_back({config_.route[i].addr, config_.route[i].port});
    }
    h.destination = {config_.destination.addr, config_.destination.port};
    core::encode_header(h, staged_);
  }
  staged_len_ = staged_.size();
  header_wire_bytes_ = staged_len_;

  const InetAddress first =
      config_.route.empty() ? config_.destination : config_.route[0];
  sock_ = connect_tcp(first);
  if (!sock_.valid()) {
    handle_connection_error();
    return;
  }
  connecting_ = true;
  loop_.add(sock_.get(), EPOLLOUT | EPOLLIN,
            [this](std::uint32_t ev) { on_io(ev); });
  if (config_.dial_timeout.count() > 0) {
    timer_purpose_ = TimerPurpose::kDial;
    arm_timer_in(config_.dial_timeout);
  }
}

void PosixSource::arm_timer_in(std::chrono::milliseconds delay) {
  if (!timer_) {
    timer_ = std::make_unique<engine::EngineTimer>(loop_, [this] { on_timer(); });
  }
  timer_->arm(
      engine::EngineTimer::now_ns() +
      std::chrono::duration_cast<std::chrono::nanoseconds>(delay).count());
}

void PosixSource::on_timer() {
  const TimerPurpose purpose = timer_purpose_;
  timer_purpose_ = TimerPurpose::kNone;
  switch (purpose) {
    case TimerPurpose::kDial:
      if (!connecting_) return;  // dial resolved while the expiry was queued
      LSL_LOG_WARN("source: dial timed out after %lld ms",
                   static_cast<long long>(config_.dial_timeout.count()));
      handle_connection_error();
      break;
    case TimerPurpose::kBackoff:
      open_connection(acked_floor_);
      break;
    case TimerPurpose::kNone:
      break;
  }
}

void PosixSource::on_io(std::uint32_t events) {
  if (connecting_) {
    const int err = connect_result(sock_.get());
    if (err != 0) {
      LSL_LOG_WARN("source: connect failed: %s", std::strerror(err));
      handle_connection_error();
      return;
    }
    connecting_ = false;
    if (timer_purpose_ == TimerPurpose::kDial) {
      timer_purpose_ = TimerPurpose::kNone;
      if (timer_) timer_->disarm();
    }
  }
  if (events & EPOLLERR) {
    handle_connection_error();
    return;
  }
  if (events & EPOLLIN) {
    // The sink sends a one-byte end-to-end status before closing; a close
    // without it means the session died in transit.
    std::uint8_t buf[256];
    const long n = read_some(sock_.get(), buf, sizeof(buf));
    if (n > 0) status_ = buf[static_cast<std::size_t>(n) - 1];
    if (n == 0) {
      if (write_done_) {
        finish(status_ == core::kStatusOk);
      } else {
        handle_connection_error();  // orderly close mid-stream
      }
      return;
    }
    if (n == -2) {
      handle_connection_error();
      return;
    }
  }
  pump();
}

void PosixSource::note_acked() {
  if (!sock_.valid()) return;
  int outq = 0;
  if (::ioctl(sock_.get(), SIOCOUTQ, &outq) != 0 || outq < 0) return;
  const std::uint64_t acked_wire =
      wire_written_ - std::min<std::uint64_t>(
                          wire_written_, static_cast<std::uint64_t>(outq));
  if (acked_wire <= header_wire_bytes_) return;
  const std::uint64_t acked_payload =
      conn_offset_ + (acked_wire - header_wire_bytes_);
  acked_floor_ = std::max(
      acked_floor_, std::min(acked_payload, config_.payload_bytes));
}

void PosixSource::handle_connection_error() {
  if (finished_) return;
  // write_done_ does not make a death terminal: the chain may have died
  // holding acked-but-undelivered bytes, and a resume (or a driver-side
  // migrate) refills everything past the floor — open_connection resets
  // the write state for the new connection.
  if (!config_.resumable || !config_.reconnect_backoff) {
    finish(false);
    return;
  }
  const auto delay = config_.reconnect_backoff();
  if (!delay) {
    LSL_LOG_WARN("source: reconnect budget exhausted; giving up");
    gave_up_ = true;
    finish(false);
    return;
  }
  if (sock_.valid()) {
    loop_.remove(sock_.get());
    sock_.reset();
  }
  ++resumes_;
  LSL_LOG_INFO("source: connection lost; resuming from %llu after %lld ms",
               static_cast<unsigned long long>(acked_floor_),
               static_cast<long long>(delay->count()));
  // Wait on the event loop, not in it: a timerfd expiry re-dials, so a
  // sibling session (or the daemon under test) keeps being serviced while
  // this source backs off.
  timer_purpose_ = TimerPurpose::kBackoff;
  arm_timer_in(*delay);
}

bool PosixSource::migrate(std::vector<InetAddress> new_route,
                          std::uint64_t floor) {
  // Migration rides the resume machinery (a digest trailer cannot rewind)
  // and striped lanes re-stripe above this layer instead.
  if (!config_.resumable || config_.stripe) return false;
  if (finished_ || gave_up_) return false;
  if (floor >= config_.payload_bytes) return false;

  // Abandon the current chain: the dying depots park or fail the husk on
  // their own. Any pending dial/backoff timer belongs to the old chain too.
  if (timer_) timer_->disarm();
  timer_purpose_ = TimerPurpose::kNone;
  if (sock_.valid()) {
    loop_.remove(sock_.get());
    sock_.reset();
  }
  connecting_ = false;
  write_done_ = false;  // bytes past `floor` go out again, via the new chain
  status_ = 0;
  migrated_ = true;
  ++migrations_;
  config_.route = std::move(new_route);
  // The sink's frontier replaces — never maxes with — our first-hop ack
  // floor: SIOCOUTQ counts bytes the dying chain acknowledged but may
  // never deliver, and a reconnect floor above the sink's frontier would
  // open a gap the adoption ledger must refuse.
  acked_floor_ = floor;
  LSL_LOG_INFO("source: migrating at floor %llu",
               static_cast<unsigned long long>(floor));
  open_connection(floor);
  return true;
}

void PosixSource::stage() {
  // Top up the buffer behind whatever is already staged (the header, on a
  // fresh connection) so header, payload and trailer leave back to back.
  // staged_ is resized only when too small, so a refill does not zero-fill
  // bytes the payload overwrites.
  if (payload_left_ > 0 && staged_len_ < kStageBytes) {
    const std::size_t chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(payload_left_, kStageBytes - staged_len_));
    if (staged_.size() < staged_len_ + chunk) {
      staged_.resize(staged_len_ + chunk);
    }
    const std::span<std::uint8_t> out(staged_.data() + staged_len_, chunk);
    if (config_.payload_fill) {
      config_.payload_fill(config_.payload_bytes - payload_left_, out);
    } else {
      generator_.generate(out);
    }
    if (!config_.trailer_digest) hasher_.update(out);
    if (config_.corrupt_one_byte && !corrupted_yet_) {
      out[chunk / 2] ^= 0xff;  // after hashing: wire differs from hash
      corrupted_yet_ = true;
    }
    staged_len_ += chunk;
    payload_left_ -= chunk;
  }
  if (payload_left_ == 0 && config_.send_digest && !trailer_sent_ &&
      staged_len_ + core::kDigestTrailerBytes <= kStageBytes) {
    const md5::Digest d = config_.trailer_digest ? *config_.trailer_digest
                                                 : hasher_.finalize();
    if (staged_.size() < staged_len_ + d.bytes.size()) {
      staged_.resize(staged_len_ + d.bytes.size());
    }
    std::copy(d.bytes.begin(), d.bytes.end(), staged_.begin() + staged_len_);
    staged_len_ += d.bytes.size();
    trailer_sent_ = true;
  }
}

void PosixSource::pump() {
  if (finished_ || write_done_) return;
  for (;;) {
    if (staged_off_ == staged_len_) {
      staged_len_ = 0;
      staged_off_ = 0;
    }
    if (staged_off_ == 0) stage();
    if (staged_len_ == 0) break;  // header, payload and trailer all sent
    // The write that finishes the stream carries MSG_MORE: the kernel holds
    // its tail segment and the shutdown below puts the FIN on it.
    const bool last = payload_left_ == 0 &&
                      (!config_.send_digest || trailer_sent_);
    const long n = write_some(sock_.get(), staged_.data() + staged_off_,
                              staged_len_ - staged_off_,
                              last ? MSG_MORE : 0);
    if (n < 0) {
      handle_connection_error();
      return;
    }
    // The acked floor is read only by a resume; skip the SIOCOUTQ ioctl
    // on sessions that never resume (migrate() replaces the floor anyway).
    if (n == 0) {
      if (config_.resumable) note_acked();
      return;  // kernel buffer full; EPOLLOUT re-arms us
    }
    staged_off_ += static_cast<std::size_t>(n);
    wire_written_ += static_cast<std::uint64_t>(n);
    if (config_.resumable) note_acked();
  }
  // Everything written: half-close and await the sink's close.
  ::shutdown(sock_.get(), SHUT_WR);
  write_done_ = true;
  loop_.modify(sock_.get(), EPOLLIN);
}

void PosixSource::finish(bool ok) {
  if (finished_) return;
  finished_ = true;
  timer_.reset();  // unregister so an idle loop can run dry and exit
  timer_purpose_ = TimerPurpose::kNone;
  if (sock_.valid()) {
    loop_.remove(sock_.get());
    sock_.reset();
  }
  if (on_done) on_done(ok);
}

// --- PosixSinkServer ---------------------------------------------------------

struct PosixSinkServer::Conn {
  engine::Fd sock;
  std::chrono::steady_clock::time_point accepted_at;
  std::vector<std::uint8_t> header_buf;
  std::optional<core::SessionHeader> header;
  bool header_done = false;
  std::uint64_t payload_received = 0;
  core::PayloadVerifier verifier;
  std::vector<std::uint8_t> trailer;
  bool failed = false;
  /// Striped lanes: the session's merge point and this lane's placement
  /// cursor (unstriped sessions leave both unset and verify per-conn).
  StripeGroup* group = nullptr;
  std::optional<stripe::LaneCursor> cursor;
  /// Lane finished cleanly but the merge hasn't: held open, off the loop,
  /// until the group resolves and sends every lane its status byte.
  bool parked = false;
  /// Adoption mode: the session ledger this connection feeds, and the
  /// absolute stream offset its first payload byte lands at (a migrate
  /// connection's resume_offset; 0 for the original). Unset when the
  /// connection verifies per-conn as before.
  SessionState* session = nullptr;
  std::uint64_t session_base = 0;

  Conn(std::uint64_t seed, bool check_content)
      : verifier(seed, check_content) {}
};

struct PosixSinkServer::SessionState {
  core::SessionId id;
  std::uint64_t total = 0;     ///< logical session bytes
  std::uint64_t frontier = 0;  ///< contiguous bytes secured from 0
  bool completed = false;
  bool ok = false;
  bool gap_refused = false;  ///< a connection claimed bytes we lack
  std::size_t connections = 0;
  core::PayloadVerifier verifier;
  std::optional<core::SessionHeader> first_header;
  std::chrono::steady_clock::time_point first_accept;
  /// Connections currently attached (live fds feeding this session).
  std::vector<Conn*> attached;

  SessionState(std::uint64_t seed, bool check_content)
      : verifier(seed, check_content) {}
};

struct PosixSinkServer::StripeGroup {
  stripe::Reassembler reasm;
  core::PayloadVerifier verifier;
  std::optional<md5::Digest> trailer;
  std::optional<core::SessionHeader> first_header;
  std::chrono::steady_clock::time_point first_accept;
  std::vector<Conn*> parked;
  bool reported = false;
  bool ok = false;

  StripeGroup(const core::StripeInfo& info, std::uint64_t seed,
              bool check_content,
              std::chrono::steady_clock::time_point accepted)
      : reasm(stripe::Reassembler::Config{.session_bytes = info.session_bytes,
                                          .stripe_count = info.stripe_count,
                                          .metrics = nullptr}),
        verifier(seed, check_content),
        first_accept(accepted) {
    reasm.on_frontier = [this](std::uint64_t,
                               std::span<const std::uint8_t> data) {
      verifier.feed(data);
    };
  }
};

PosixSinkServer::PosixSinkServer(EpollLoop& loop, const InetAddress& bind,
                                 bool expect_header,
                                 std::uint64_t payload_seed,
                                 bool verify_content)
    : loop_(loop),
      expect_header_(expect_header),
      payload_seed_(payload_seed),
      verify_content_(verify_content) {
  listener_ = listen_tcp(bind, SOMAXCONN, &port_);
  if (!listener_.valid()) {
    throw std::system_error(errno, std::generic_category(), "sink: bind");
  }
  loop_.add(listener_.get(), EPOLLIN, [this](std::uint32_t) { on_accept(); });
}

PosixSinkServer::~PosixSinkServer() {
  if (listener_.valid()) loop_.remove(listener_.get());
  for (auto& c : conns_) {
    if (c->sock.valid()) loop_.remove(c->sock.get());
  }
}

void PosixSinkServer::on_accept() {
  for (;;) {
    engine::Fd conn = accept_connection(listener_.get());
    if (!conn.valid()) return;
    auto c = std::make_unique<Conn>(payload_seed_, verify_content_);
    c->sock = std::move(conn);
    c->accepted_at = std::chrono::steady_clock::now();
    if (!expect_header_) c->header_done = true;
    Conn* cp = c.get();
    loop_.add(cp->sock.get(), EPOLLIN,
              [this, cp](std::uint32_t) { on_readable(cp); });
    conns_.push_back(std::move(c));
  }
}

void PosixSinkServer::on_readable(Conn* c) {
  std::uint8_t buf[64 * 1024];
  for (;;) {
    // Header phase reads exactly what the header needs.
    if (!c->header_done) {
      std::size_t want = core::kHeaderPrefixBytes > c->header_buf.size()
                             ? core::kHeaderPrefixBytes - c->header_buf.size()
                             : 0;
      if (want == 0) {
        const auto len = core::header_length(c->header_buf);
        if (!len) {
          c->failed = true;
          finish(c);
          return;
        }
        if (c->header_buf.size() >= *len) {
          c->header = core::decode_header(c->header_buf);
          c->header_done = true;
          if (c->header && c->header->stripe) {
            const core::StripeInfo& info = *c->header->stripe;
            // The lane's claimed extent must fit its plan, or reassembly
            // offers could land outside the session (decode validates the
            // block itself, not the lengths around it).
            const std::uint64_t lane_total =
                c->header->resume_offset + c->header->payload_length;
            const bool sane =
                info.mode == core::StripeMode::kContiguous
                    ? lane_total <= info.session_bytes - info.range_lo
                    : lane_total <= stripe::round_robin_lane_bytes(info);
            if (!sane) {
              c->failed = true;
              close_conn(c, std::nullopt);
              return;
            }
            auto [it, fresh] = groups_.try_emplace(c->header->session);
            if (fresh) {
              it->second = std::make_unique<StripeGroup>(
                  info, payload_seed_, verify_content_, c->accepted_at);
              it->second->first_header = c->header;
            }
            c->group = it->second.get();
            // The lane's cursor places its bytes in the merged stream; a
            // replacement lane's resume_offset skips what the dead lane
            // already delivered.
            c->cursor.emplace(info,
                              c->header->resume_offset +
                                  c->header->payload_length);
            c->cursor->skip(c->header->resume_offset);
          } else if (adopt_migrations_ && c->header &&
                     (c->header->flags & core::kFlagUnboundedStream) == 0 &&
                     !c->header->has_digest()) {
            // Adoption mode: bounded, digest-free sessions (the resumable
            // kind migration rides) are tracked by id across connections.
            adopt_session(c);
          }
          continue;
        }
        want = *len - c->header_buf.size();
      }
      const long n =
          read_some(c->sock.get(), buf, std::min(want, sizeof(buf)));
      if (n == 0) {
        c->failed = true;
        finish(c);
        return;
      }
      if (n < 0) {
        if (n == -2) {
          c->failed = true;
          finish(c);
        }
        return;
      }
      c->header_buf.insert(c->header_buf.end(), buf, buf + n);
      continue;
    }

    // Payload / trailer phase. With a header, payload_length is exact
    // (unless the unbounded-stream flag is set); headerless raw transfers
    // run until FIN.
    const bool digest = c->header && c->header->has_digest();
    const bool bounded =
        c->header &&
        (c->header->flags & core::kFlagUnboundedStream) == 0;
    const std::uint64_t payload_total =
        bounded ? c->header->payload_length : ~std::uint64_t{0};
    std::size_t want = sizeof(buf);
    if (c->payload_received < payload_total) {
      want = static_cast<std::size_t>(std::min<std::uint64_t>(
          payload_total - c->payload_received, sizeof(buf)));
    } else if (digest) {
      want = core::kDigestTrailerBytes - c->trailer.size();
      if (want == 0) want = sizeof(buf);  // drain unexpected surplus
    }
    const long n = read_some(c->sock.get(), buf, want);
    if (n == 0) {
      if (c->group) {
        finish_striped_lane(c);
      } else if (c->session) {
        // An adopted connection ending before its session completes is a
        // husk (the abandoned chain's leftover) or a mid-stream death the
        // source's resume/migration machinery recovers from: close
        // silently — the session verdict comes from complete_session.
        close_conn(c, std::nullopt);
      } else {
        finish(c);
      }
      return;
    }
    if (n < 0) {
      if (n == -2) {
        c->failed = true;
        if (c->group) {
          finish_striped_lane(c);
        } else if (c->session) {
          close_conn(c, std::nullopt);
        } else {
          finish(c);
        }
      }
      return;
    }
    if (c->payload_received < payload_total) {
      const std::span<const std::uint8_t> data(buf,
                                               static_cast<std::size_t>(n));
      bytes_received_ += static_cast<std::uint64_t>(n);
      if (c->group) {
        feed_stripe(c, data);
        c->payload_received += static_cast<std::uint64_t>(n);
      } else if (c->session) {
        SessionState* s = c->session;
        if (!feed_session(c, data)) {
          // The connection opened a gap past the stitched frontier: acked
          // bytes died with the old chain. Refuse it outright.
          c->failed = true;
          close_conn(c, core::kStatusFail);
          return;
        }
        if (s->completed) return;  // complete_session closed this conn
      } else {
        c->verifier.feed(data);
        c->payload_received += static_cast<std::uint64_t>(n);
      }
    } else if (digest && c->trailer.size() < core::kDigestTrailerBytes) {
      c->trailer.insert(c->trailer.end(), buf, buf + n);
      if (c->group && !c->group->trailer &&
          c->trailer.size() == core::kDigestTrailerBytes) {
        md5::Digest d;
        std::copy(c->trailer.begin(), c->trailer.end(), d.bytes.begin());
        c->group->trailer = d;
        maybe_complete_group(c->group);
      }
    }
  }
}

void PosixSinkServer::feed_stripe(Conn* c, std::span<const std::uint8_t> data) {
  while (!data.empty()) {
    const auto r = c->cursor->next(data.size());
    if (r.length == 0) return;  // lane overran its plan; surplus is dropped
    c->group->reasm.offer(c->header->stripe->stripe_id, r.global,
                          data.first(static_cast<std::size_t>(r.length)));
    data = data.subspan(static_cast<std::size_t>(r.length));
  }
  maybe_complete_group(c->group);
}

PosixSinkServer::SessionState* PosixSinkServer::adopt_session(Conn* c) {
  const core::SessionHeader& h = *c->header;
  // A migrate header carries (floor, remaining); the logical total is their
  // sum. Resume and original headers carry the full payload length.
  const std::uint64_t base =
      (h.is_migrate() || h.is_resume()) ? h.resume_offset : 0;
  const std::uint64_t total = h.is_migrate()
                                  ? h.resume_offset + h.payload_length
                                  : h.payload_length;
  auto [it, fresh] = sessions_.try_emplace(h.session);
  if (fresh) {
    it->second =
        std::make_unique<SessionState>(payload_seed_, verify_content_);
    SessionState* s = it->second.get();
    s->id = h.session;
    s->total = total;
    s->first_header = c->header;
    s->first_accept = c->accepted_at;
  }
  SessionState* s = it->second.get();
  ++s->connections;
  s->attached.push_back(c);
  c->session = s;
  c->session_base = base;
  return s;
}

bool PosixSinkServer::feed_session(Conn* c, std::span<const std::uint8_t> data) {
  SessionState* s = c->session;
  const std::uint64_t off = c->session_base + c->payload_received;
  c->payload_received += data.size();
  if (s->completed) return true;  // late husk bytes after the verdict
  if (off > s->frontier) {
    s->gap_refused = true;
    LSL_LOG_WARN("sink: session gap at %llu (frontier %llu); refused",
                 static_cast<unsigned long long>(off),
                 static_cast<unsigned long long>(s->frontier));
    return false;
  }
  // Discard the duplicated prefix; feed only frontier-advancing bytes so
  // the stitched MD5 covers each stream byte exactly once.
  const std::uint64_t skip = s->frontier - off;
  if (skip >= data.size()) return true;
  const auto fresh = data.subspan(static_cast<std::size_t>(skip));
  s->verifier.feed(fresh);
  s->frontier += fresh.size();
  if (s->frontier >= s->total) complete_session(s);
  return true;
}

void PosixSinkServer::complete_session(SessionState* s) {
  s->completed = true;
  s->ok = !s->gap_refused && s->verifier.ok();

  SinkResult res;
  res.verified = s->ok;
  res.payload_bytes = s->frontier;
  res.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - s->first_accept)
                    .count();
  res.header = s->first_header;

  // One status byte per attached connection, then close them all — the
  // verdict is a stream property, delivered to whichever connection is
  // still carrying the session (husks included).
  const std::uint8_t status = s->ok ? core::kStatusOk : core::kStatusFail;
  const std::vector<Conn*> attached = s->attached;  // close_conn edits it
  for (Conn* conn : attached) close_conn(conn, status);

  if (on_complete) on_complete(res);
}

std::uint64_t PosixSinkServer::session_frontier(
    const core::SessionId& id) const {
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? 0 : it->second->frontier;
}

bool PosixSinkServer::session_completed(const core::SessionId& id) const {
  const auto it = sessions_.find(id);
  return it != sessions_.end() && it->second->completed;
}

md5::Digest PosixSinkServer::session_digest(const core::SessionId& id) const {
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? md5::Digest{} : it->second->verifier.digest();
}

void PosixSinkServer::maybe_complete_group(StripeGroup* g) {
  if (g->reported || !g->reasm.complete() || !g->trailer) return;
  g->reported = true;
  g->ok = g->verifier.ok() && g->reasm.digest() == *g->trailer;

  SinkResult res;
  res.verified = g->ok;
  res.payload_bytes = g->reasm.frontier();
  res.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - g->first_accept)
                    .count();
  res.header = g->first_header;

  // Release every lane that was waiting on the merge; lanes still
  // streaming (redundant surplus) get their status at their own EOF.
  const std::vector<Conn*> parked = std::move(g->parked);
  g->parked.clear();
  const std::uint8_t status = g->ok ? core::kStatusOk : core::kStatusFail;
  for (Conn* c : parked) close_conn(c, status);

  if (on_complete) on_complete(res);
}

void PosixSinkServer::finish_striped_lane(Conn* c) {
  StripeGroup* g = c->group;
  const bool digest = c->header->has_digest();
  const bool lane_ok = !c->failed &&
                       c->payload_received == c->header->payload_length &&
                       (!digest || c->trailer.size() ==
                                       core::kDigestTrailerBytes);
  if (!lane_ok) {
    // A dead lane: close without a status byte so the source sees the
    // failure and re-stripes. The merge keeps whatever the lane delivered.
    close_conn(c, std::nullopt);
    return;
  }
  if (g->reported) {
    close_conn(c, g->ok ? core::kStatusOk : core::kStatusFail);
    return;
  }
  // Lane done, merge not: park until the last lane lands.
  c->parked = true;
  loop_.remove(c->sock.get());
  g->parked.push_back(c);
}

void PosixSinkServer::close_conn(Conn* c, std::optional<std::uint8_t> status) {
  if (c->group) {
    auto& parked = c->group->parked;
    parked.erase(std::remove(parked.begin(), parked.end(), c), parked.end());
  }
  if (c->session) {
    auto& at = c->session->attached;
    at.erase(std::remove(at.begin(), at.end(), c), at.end());
  }
  if (c->sock.valid()) {
    // MSG_MORE holds the status byte until close() queues the FIN behind
    // it, so the verdict and the FIN leave in one segment.
    if (status) write_some(c->sock.get(), &*status, 1, MSG_MORE);
    if (!c->parked) loop_.remove(c->sock.get());
    c->sock.reset();
  }
  conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                              [c](const auto& p) { return p.get() == c; }),
               conns_.end());
}

void PosixSinkServer::finish(Conn* c) {
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - c->accepted_at)
                           .count();
  SinkResult res;
  res.payload_bytes = c->payload_received;
  res.seconds = elapsed;
  res.header = c->header;

  bool ok = !c->failed && c->verifier.ok();
  if (ok && c->header) {
    if ((c->header->flags & core::kFlagUnboundedStream) == 0 &&
        c->payload_received != c->header->payload_length) {
      ok = false;
    }
    if (c->header->has_digest()) {
      if (c->trailer.size() == core::kDigestTrailerBytes) {
        md5::Digest expect;
        std::copy(c->trailer.begin(), c->trailer.end(), expect.bytes.begin());
        ok = ok && (c->verifier.digest() == expect);
      } else {
        ok = false;
      }
    }
  }
  res.verified = ok;

  // End-to-end status byte, then close: the source's completion signal.
  close_conn(c, ok ? core::kStatusOk : core::kStatusFail);
  if (on_complete) on_complete(res);
}

}  // namespace lsl::posix
