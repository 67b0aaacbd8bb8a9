// Wire-shape tests of the posix relay path. A session's header, payload
// and trailer leave each hop in as few TCP segments as the MSS allows,
// with the FIN on the last data segment, and the status byte travels back
// with the FIN that closes the hop. The segment counts come from the
// kernel's own per-connection counters (TCP_INFO), read on the receiving
// socket after EOF; on loopback the MSS is about 64 KiB, so a 4 KiB
// session's counts are exact. The suite also pins the socket flags every
// accepted and dialed connection must carry, and checks that coalescing
// keeps MD5 and content intact at the staging buffer's edges.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <linux/tcp.h>  // struct tcp_info with tcpi_segs_in/data_segs_in
#include <sys/epoll.h>
#include <sys/socket.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/spec.hpp"
#include "lsl/payload.hpp"
#include "lsl/session_id.hpp"
#include "lsl/wire.hpp"
#include "posix/client.hpp"
#include "posix/epoll_loop.hpp"
#include "posix/fault_driver.hpp"
#include "posix/lsd.hpp"
#include "posix/socket_util.hpp"
#include "posix/striped_client.hpp"
#include "posix_test_util.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace lsl::test {
namespace {

using posix::EpollLoop;
using posix::InetAddress;
using posix::Lsd;
using posix::LsdConfig;
using posix::PosixSinkServer;
using posix::PosixSource;
using posix::PosixSourceConfig;
using posix::SinkResult;

/// PosixSource stages at most this many wire bytes per send.
constexpr std::size_t kStageBytes = 64 * 1024;
constexpr std::uint64_t kSmall = 4 * util::kKiB;

bool loopback_available() {
  try {
    EpollLoop loop;
    PosixSinkServer probe(loop, InetAddress::loopback(0), false, 1);
    return probe.port() != 0;
  } catch (const std::exception&) {
    return false;
  }
}

#define REQUIRE_LOOPBACK()                                     \
  if (!loopback_available()) {                                 \
    GTEST_SKIP() << "loopback sockets unavailable in sandbox"; \
  }

struct SegmentCounts {
  std::uint32_t segs_in = 0;       ///< every segment, SYN and bare ACKs too
  std::uint32_t data_segs_in = 0;  ///< segments carrying payload bytes
};

SegmentCounts segments_in(int fd) {
  tcp_info info{};
  socklen_t len = sizeof(info);
  EXPECT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_INFO, &info, &len), 0);
  return {info.tcpi_segs_in, info.tcpi_data_segs_in};
}

/// Accepts one connection, reads it to EOF, samples TCP_INFO, then closes
/// without a status byte (the sender's verdict does not matter here).
class EofListener {
 public:
  explicit EofListener(EpollLoop& loop) : loop_(loop) {
    listener_ = posix::listen_tcp(InetAddress::loopback(0), 16, &port_);
    loop_.add(listener_.get(), EPOLLIN, [this](std::uint32_t) {
      if (conn_.valid()) return;
      conn_ = posix::accept_connection(listener_.get());
      if (!conn_.valid()) return;
      loop_.add(conn_.get(), EPOLLIN, [this](std::uint32_t) { on_read(); });
    });
  }
  ~EofListener() {
    if (conn_.valid()) loop_.remove(conn_.get());
    loop_.remove(listener_.get());
  }

  std::uint16_t port() const { return port_; }
  bool done() const { return counts_.has_value(); }
  SegmentCounts counts() const { return counts_.value_or(SegmentCounts{}); }
  std::size_t bytes() const { return bytes_; }

 private:
  void on_read() {
    std::uint8_t buf[16 * 1024];
    for (;;) {
      const long n = posix::read_some(conn_.get(), buf, sizeof(buf));
      if (n > 0) {
        bytes_ += static_cast<std::size_t>(n);
        continue;
      }
      if (n == -1) return;  // EAGAIN
      counts_ = segments_in(conn_.get());
      loop_.remove(conn_.get());
      conn_.reset();
      return;
    }
  }

  EpollLoop& loop_;
  engine::Fd listener_;
  engine::Fd conn_;
  std::uint16_t port_ = 0;
  std::size_t bytes_ = 0;
  std::optional<SegmentCounts> counts_;
};

/// The header a digest-carrying source writes for `payload` bytes to
/// `destination` through at most one depot (no hops beyond the next).
core::SessionHeader digest_header(std::uint64_t payload,
                                  const InetAddress& destination) {
  core::SessionHeader h;
  util::Rng rng(77);
  h.session = core::SessionId::generate(rng);
  h.flags = core::kFlagDigestTrailer;
  h.payload_length = payload;
  h.destination = {destination.addr, destination.port};
  return h;
}

std::size_t header_bytes(const core::SessionHeader& h) {
  std::vector<std::uint8_t> wire;
  core::encode_header(h, wire);
  return wire.size();
}

/// Header, seeded payload and MD5 trailer of one session, as one buffer.
std::vector<std::uint8_t> session_wire(std::uint64_t payload,
                                       std::uint64_t seed,
                                       const InetAddress& destination) {
  std::vector<std::uint8_t> wire;
  core::encode_header(digest_header(payload, destination), wire);
  const std::size_t at = wire.size();
  wire.resize(at + payload);
  core::PayloadGenerator gen(seed);
  gen.generate(std::span<std::uint8_t>(wire.data() + at, payload));
  const md5::Digest d = core::stream_digest(seed, payload);
  wire.insert(wire.end(), d.bytes.begin(), d.bytes.end());
  return wire;
}

/// Dial `port`, write `wire` and half-close, then read the reply to EOF.
/// Returns the reply bytes; `counts` receives TCP_INFO at EOF.
std::optional<std::vector<std::uint8_t>> raw_session(
    EpollLoop& loop, std::uint16_t port, const std::vector<std::uint8_t>& wire,
    SegmentCounts* counts) {
  engine::Fd sock = posix::connect_tcp(InetAddress::loopback(port));
  if (!sock.valid()) return std::nullopt;
  bool writable = false;
  loop.add(sock.get(), EPOLLOUT, [&](std::uint32_t) { writable = true; });
  const bool connected = wait_until(loop, [&] { return writable; });
  loop.remove(sock.get());
  if (!connected || posix::connect_result(sock.get()) != 0) return std::nullopt;
  // One write with MSG_MORE and the half-close: the peer sees one data
  // segment carrying the FIN, as from a PosixSource.
  if (::send(sock.get(), wire.data(), wire.size(), MSG_NOSIGNAL | MSG_MORE) !=
      static_cast<ssize_t>(wire.size())) {
    return std::nullopt;
  }
  ::shutdown(sock.get(), SHUT_WR);

  std::vector<std::uint8_t> reply;
  bool eof = false;
  loop.add(sock.get(), EPOLLIN, [&](std::uint32_t) {
    std::uint8_t buf[256];
    for (;;) {
      const long n = posix::read_some(sock.get(), buf, sizeof(buf));
      if (n > 0) {
        reply.insert(reply.end(), buf, buf + n);
        continue;
      }
      if (n != -1) eof = true;
      return;
    }
  });
  const bool closed = wait_until(loop, [&] { return eof; });
  *counts = segments_in(sock.get());
  loop.remove(sock.get());
  if (!closed) return std::nullopt;
  return reply;
}

// --- Socket flags -----------------------------------------------------------

void expect_relay_socket_flags(int fd, const char* what) {
  const int fd_flags = ::fcntl(fd, F_GETFD);
  ASSERT_GE(fd_flags, 0) << what;
  EXPECT_TRUE(fd_flags & FD_CLOEXEC) << what << " leaks into exec'd children";
  const int fl = ::fcntl(fd, F_GETFL);
  ASSERT_GE(fl, 0) << what;
  EXPECT_TRUE(fl & O_NONBLOCK) << what << " would block the event loop";
  int nodelay = 0;
  socklen_t len = sizeof(nodelay);
  ASSERT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len), 0);
  EXPECT_NE(nodelay, 0) << what << " is subject to Nagle";
}

// Accepted sockets inherit TCP_NODELAY from the listener and are created
// nonblocking and close-on-exec by accept4; dialed sockets get both flags
// at socket() time plus their own TCP_NODELAY.
TEST(PosixSegments, AcceptedAndDialedSocketsAreCloexecNonblockingNodelay) {
  REQUIRE_LOOPBACK();
  EpollLoop loop;
  engine::Fd listener = posix::listen_tcp(InetAddress::loopback(0));
  ASSERT_TRUE(listener.valid());
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ASSERT_EQ(::getsockname(listener.get(), reinterpret_cast<sockaddr*>(&bound),
                          &bound_len),
            0);
  const std::uint16_t port = ntohs(bound.sin_port);
  expect_relay_socket_flags(listener.get(), "listener");
  // On a listener TCP_INFO reports the accept-queue bound in tcpi_sacked.
  // A one-segment session cannot afford a dropped handshake ACK, so the
  // default is SOMAXCONN (capped by net.core.somaxconn), not the old 64.
  tcp_info info{};
  socklen_t len = sizeof(info);
  ASSERT_EQ(::getsockopt(listener.get(), IPPROTO_TCP, TCP_INFO, &info, &len),
            0);
  EXPECT_GT(info.tcpi_sacked, 64u);

  engine::Fd dialed = posix::connect_tcp(InetAddress::loopback(port));
  ASSERT_TRUE(dialed.valid());
  engine::Fd accepted;
  loop.add(listener.get(), EPOLLIN, [&](std::uint32_t) {
    if (!accepted.valid()) {
      accepted = posix::accept_connection(listener.get());
    }
  });
  ASSERT_TRUE(wait_until(loop, [&] { return accepted.valid(); }));
  loop.remove(listener.get());

  expect_relay_socket_flags(dialed.get(), "dialed socket");
  expect_relay_socket_flags(accepted.get(), "accepted socket");
}

// --- Segment counts ---------------------------------------------------------

// Source hop: SYN, the handshake's ACK, and one data segment carrying the
// header, the 4 KiB payload, the trailer and the FIN. (Sending header,
// payload and trailer as three writes with a separate FIN arrives as 3
// data segments, 6 in all.)
TEST(PosixSegments, SourceSendsSmallSessionAsOneDataSegmentWithFin) {
  REQUIRE_LOOPBACK();
  EpollLoop loop;
  EofListener sink(loop);

  PosixSourceConfig cfg;
  cfg.destination = InetAddress::loopback(sink.port());
  cfg.payload_bytes = kSmall;
  cfg.payload_seed = 5;
  PosixSource src(loop, cfg);
  src.start();

  ASSERT_TRUE(wait_until(loop, [&] { return sink.done(); }));
  EXPECT_EQ(sink.bytes(), header_bytes(digest_header(kSmall, cfg.destination)) +
                              kSmall + core::kDigestTrailerBytes);
  EXPECT_EQ(sink.counts().data_segs_in, 1u);
  EXPECT_EQ(sink.counts().segs_in, 3u);
}

// Depot → sink hop: the Lsd reads the whole session before its dial
// completes, then forwards header and ring in one writev whose tail holds
// the FIN.
TEST(PosixSegments, LsdForwardsSmallSessionAsOneDataSegmentWithFin) {
  REQUIRE_LOOPBACK();
  EpollLoop loop;
  EofListener sink(loop);
  Lsd depot(loop, LsdConfig{});

  PosixSourceConfig cfg;
  cfg.route = {InetAddress::loopback(depot.port())};
  cfg.destination = InetAddress::loopback(sink.port());
  cfg.payload_bytes = kSmall;
  cfg.payload_seed = 6;
  PosixSource src(loop, cfg);
  src.start();

  ASSERT_TRUE(wait_until(loop, [&] { return sink.done(); }));
  EXPECT_EQ(sink.bytes(), header_bytes(digest_header(kSmall, cfg.destination)) +
                              kSmall + core::kDigestTrailerBytes);
  EXPECT_EQ(sink.counts().data_segs_in, 1u);
  EXPECT_EQ(sink.counts().segs_in, 3u);
}

// Reverse direction, sink → client: SYN-ACK, the ACK of the session, and
// the status byte with the FIN on it (a separate FIN would make it 4).
TEST(PosixSegments, SinkSendsStatusByteWithFin) {
  REQUIRE_LOOPBACK();
  EpollLoop loop;
  PosixSinkServer sink(loop, InetAddress::loopback(0), true, 8);
  bool done = false;
  SinkResult result;
  sink.on_complete = [&](const SinkResult& r) {
    result = r;
    done = true;
  };

  SegmentCounts counts;
  const auto reply = raw_session(
      loop, sink.port(),
      session_wire(kSmall, 8, InetAddress::loopback(sink.port())), &counts);
  ASSERT_TRUE(reply.has_value());
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.verified);
  ASSERT_EQ(reply->size(), 1u);
  EXPECT_EQ((*reply)[0], core::kStatusOk);
  EXPECT_EQ(counts.data_segs_in, 1u);
  EXPECT_EQ(counts.segs_in, 3u);
}

// Reverse direction through a depot: the Lsd relays the sink's status byte
// upstream and its close puts the FIN on the same segment.
TEST(PosixSegments, LsdRelaysStatusByteWithFin) {
  REQUIRE_LOOPBACK();
  EpollLoop loop;
  PosixSinkServer sink(loop, InetAddress::loopback(0), true, 9);
  Lsd depot(loop, LsdConfig{});
  bool done = false;
  sink.on_complete = [&](const SinkResult& r) { done = r.verified; };

  SegmentCounts counts;
  const auto reply = raw_session(
      loop, depot.port(),
      session_wire(kSmall, 9, InetAddress::loopback(sink.port())), &counts);
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(done);
  ASSERT_EQ(reply->size(), 1u);
  EXPECT_EQ((*reply)[0], core::kStatusOk);
  EXPECT_EQ(counts.data_segs_in, 1u);
  EXPECT_EQ(counts.segs_in, 3u);
  ASSERT_TRUE(wait_until(
      loop, [&] { return depot.stats().sessions_completed == 1; }));
}

// --- Coalescing edge cases --------------------------------------------------

struct RelayOutcome {
  bool sink_done = false;
  bool src_ok = false;
  SinkResult result;
};

/// One session source → Lsd → sink with an MD5 trailer and content check.
RelayOutcome relay_session(std::uint64_t payload, std::uint64_t seed,
                           bool corrupt = false) {
  EpollLoop loop;
  PosixSinkServer sink(loop, InetAddress::loopback(0), true, seed);
  Lsd depot(loop, LsdConfig{});
  RelayOutcome out;
  sink.on_complete = [&](const SinkResult& r) {
    out.result = r;
    out.sink_done = true;
  };
  PosixSourceConfig cfg;
  cfg.route = {InetAddress::loopback(depot.port())};
  cfg.destination = InetAddress::loopback(sink.port());
  cfg.payload_bytes = payload;
  cfg.payload_seed = seed;
  cfg.corrupt_one_byte = corrupt;
  PosixSource src(loop, cfg);
  bool src_done = false;
  src.on_done = [&](bool ok) {
    out.src_ok = ok;
    src_done = true;
  };
  src.start();
  wait_until(loop, [&] { return out.sink_done && src_done; }, 20.0);
  return out;
}

// A 0-byte payload (header, trailer and FIN in one segment) is
// PosixRelay.ZeroByteSessionCompletes.

// The payload fills the first staged buffer exactly: the trailer has no
// room in it and goes alone in the second.
TEST(PosixSegments, PayloadEndingAtFirstStagedBufferVerifies) {
  REQUIRE_LOOPBACK();
  const std::uint64_t payload =
      kStageBytes -
      header_bytes(digest_header(0, InetAddress::loopback(1)));
  const RelayOutcome o = relay_session(payload, 32);
  ASSERT_TRUE(o.sink_done);
  EXPECT_TRUE(o.result.verified);
  EXPECT_TRUE(o.src_ok);
  EXPECT_EQ(o.result.payload_bytes, payload);
}

// One byte more: that byte and the trailer share the second buffer.
TEST(PosixSegments, PayloadOneBytePastFirstStagedBufferVerifies) {
  REQUIRE_LOOPBACK();
  const std::uint64_t payload =
      kStageBytes -
      header_bytes(digest_header(0, InetAddress::loopback(1))) + 1;
  const RelayOutcome o = relay_session(payload, 33);
  ASSERT_TRUE(o.sink_done);
  EXPECT_TRUE(o.result.verified);
  EXPECT_TRUE(o.src_ok);
  EXPECT_EQ(o.result.payload_bytes, payload);
}

// The flipped byte lands in the buffer the header shares; the sink still
// receives every byte and still refuses the session.
TEST(PosixSegments, CorruptedSmallSessionIsDetected) {
  REQUIRE_LOOPBACK();
  const RelayOutcome o = relay_session(kSmall, 34, /*corrupt=*/true);
  ASSERT_TRUE(o.sink_done);
  EXPECT_FALSE(o.result.verified);
  EXPECT_FALSE(o.src_ok);
  EXPECT_EQ(o.result.payload_bytes, kSmall);
}

// A resumable session reset mid-stream by the depot: the source reconnects
// from its SIOCOUTQ floor and the sink's content check covers every byte.
// The odd tail leaves a short last staged buffer.
TEST(PosixSegments, ResumableSessionSurvivesMidStreamReset) {
  REQUIRE_LOOPBACK();
  EpollLoop loop;
  // Large enough that socket buffers cannot swallow the stream before the
  // reset lands (see PosixChaos.KillAndResumeCycle).
  const std::uint64_t bytes = 64 * util::kMiB + 12345;
  PosixSinkServer sink(loop, InetAddress::loopback(0), true, 35);
  bool sink_done = false;
  SinkResult res;
  sink.on_complete = [&](const SinkResult& r) {
    res = r;
    sink_done = true;
  };
  LsdConfig dcfg;
  dcfg.buffer_bytes = 256 * util::kKiB;
  dcfg.resume_grace = std::chrono::milliseconds(3000);
  Lsd lsd(loop, dcfg);
  std::string err;
  const auto plan =
      fault::parse_fault_spec("reset:depot=d1,at_bytes=4194304", &err);
  ASSERT_TRUE(plan.has_value()) << err;
  posix::LsdFaultDriver driver(lsd, *plan);
  driver.arm();

  PosixSourceConfig cfg;
  cfg.route = {InetAddress::loopback(lsd.port())};
  cfg.destination = InetAddress::loopback(sink.port());
  cfg.payload_bytes = bytes;
  cfg.payload_seed = 35;
  cfg.resumable = true;
  cfg.reconnect_backoff = [] {
    return std::optional<std::chrono::milliseconds>(20);
  };
  PosixSource src(loop, cfg);
  bool src_done = false;
  bool src_ok = false;
  src.on_done = [&](bool ok) {
    src_ok = ok;
    src_done = true;
  };
  src.start();

  ASSERT_TRUE(wait_until(
      loop, [&] { return sink_done && src_done; }, 30.0,
      [&] { driver.poll(); }));
  EXPECT_TRUE(src_ok);
  EXPECT_TRUE(res.verified);
  EXPECT_EQ(res.payload_bytes, bytes);
  EXPECT_GE(src.resumes(), 1u);
  EXPECT_EQ(driver.injected(), 1u);
}

// Striped lanes stage bytes from payload_fill and send the session digest
// as trailer_digest; each lane here crosses the first staged buffer.
TEST(PosixSegments, StripedLanesWithFillAndTrailerDigestVerify) {
  REQUIRE_LOOPBACK();
  EpollLoop loop;
  const std::uint64_t bytes = 200 * util::kKiB + 123;
  PosixSinkServer sink(loop, InetAddress::loopback(0), true, 36);
  bool sink_done = false;
  SinkResult res;
  sink.on_complete = [&](const SinkResult& r) {
    res = r;
    sink_done = true;
  };
  std::vector<std::unique_ptr<Lsd>> depots;
  posix::StripedPosixSourceConfig cfg;
  for (int i = 0; i < 3; ++i) {
    depots.push_back(std::make_unique<Lsd>(loop, LsdConfig{}));
    cfg.lane_routes.push_back({InetAddress::loopback(depots.back()->port())});
  }
  cfg.destination = InetAddress::loopback(sink.port());
  cfg.payload_bytes = bytes;
  cfg.payload_seed = 36;
  cfg.chunk = 8 * 1024;
  posix::StripedPosixSource src(loop, cfg);
  bool src_done = false;
  bool src_ok = false;
  src.on_done = [&](bool ok) {
    src_ok = ok;
    src_done = true;
  };
  src.start();

  ASSERT_TRUE(wait_until(loop, [&] { return sink_done && src_done; }, 20.0));
  EXPECT_TRUE(src_ok);
  EXPECT_TRUE(res.verified);
  EXPECT_EQ(res.payload_bytes, bytes);
  EXPECT_EQ(src.stripes_lost(), 0u);
}

}  // namespace
}  // namespace lsl::test
