// Nonblocking TCP socket helpers shared by the lsd daemon and the posix
// client/sink applications.
#pragma once

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "engine/fd.hpp"

namespace lsl::posix {

/// IPv4 address + port in host byte order.
struct InetAddress {
  std::uint32_t addr = 0;  ///< e.g. 0x7f000001 for 127.0.0.1
  std::uint16_t port = 0;

  static InetAddress loopback(std::uint16_t port) {
    return {0x7f000001u, port};
  }
  sockaddr_in to_sockaddr() const;
  std::string to_string() const;
};

/// Parse dotted-quad "a.b.c.d" into host-order u32; nullopt on error.
std::optional<std::uint32_t> parse_ipv4(const std::string& dotted);

/// Disable Nagle (TCP_NODELAY).
bool set_nodelay(int fd);

/// Create a nonblocking listening socket bound to `bind_addr` with
/// SO_REUSEADDR and TCP_NODELAY; Linux copies the listener's TCP_NODELAY
/// to every socket it accepts, so accepted connections need no setsockopt
/// of their own. If bind_addr.port == 0, an ephemeral port is chosen;
/// `bound_port` (when non-null) receives the actual port. With
/// `reuse_port`, SO_REUSEPORT is also set — several listeners (one per
/// daemon shard) bind the same address and the kernel load-balances
/// accepted connections across them. Invalid Fd on failure (errno is
/// preserved).
///
/// The daemon and sink listen with SOMAXCONN. A session that arrives as
/// one data segment gives a handshake whose final ACK a full accept queue
/// dropped no later segment to complete it on, so each overflow costs a
/// retransmission backoff; a burst of sessions must fit the queue.
engine::Fd listen_tcp(const InetAddress& bind_addr, int backlog = SOMAXCONN,
              std::uint16_t* bound_port = nullptr, bool reuse_port = false);

/// Begin a nonblocking connect to `remote`. On return the socket is either
/// connected or connecting (EINPROGRESS) — wait for EPOLLOUT and check
/// connect_result(). The socket is TCP_NODELAY and close-on-exec.
/// Invalid Fd on immediate failure.
engine::Fd connect_tcp(const InetAddress& remote);

/// After EPOLLOUT on a connecting socket: 0 on success, else the errno.
int connect_result(int fd);

/// Accept one connection, nonblocking and close-on-exec (accept4), with
/// TCP_NODELAY inherited from the listener; invalid Fd when none pending.
engine::Fd accept_connection(int listen_fd);

/// write() as much of [data, data+len) as the socket accepts.
/// Returns bytes written (possibly 0 on EAGAIN), or -1 on fatal error.
/// `flags` are OR-ed into send()'s MSG_NOSIGNAL: a writer that is about to
/// shutdown(SHUT_WR) or close() passes MSG_MORE on the write that finishes
/// its stream, so the kernel holds the tail segment and the FIN rides on it
/// instead of following in a segment of its own.
long write_some(int fd, const std::uint8_t* data, std::size_t len,
                int flags = 0);

/// Scatter/gather write_some: send as much of the iovec array as the
/// socket accepts in one sendmsg (MSG_NOSIGNAL, EINTR retried). The relay
/// uses it to pair the forwarded header with the first payload bytes in
/// one syscall. Returns bytes written (0 on EAGAIN), or -1 on fatal error.
/// Does not modify the iovec array; callers account partial progress.
/// `flags` as for write_some.
long writev_some(int fd, const struct iovec* iov, int iovcnt, int flags = 0);

/// read() up to `len` bytes. Returns bytes read, 0 on orderly EOF, -1 on
/// EAGAIN (no data), -2 on fatal error.
long read_some(int fd, std::uint8_t* data, std::size_t len);

/// Create a nonblocking pipe (the splice fast path's kernel buffer).
/// On success fills rd/wr and returns the pipe's capacity in bytes
/// (F_GETPIPE_SZ, or a conservative default when unavailable); 0 on
/// failure.
std::size_t make_pipe(engine::Fd* rd, engine::Fd* wr);

/// splice() up to `len` bytes from `in_fd` to `out_fd` without copying
/// through user space. Returns bytes moved, 0 on EOF at `in_fd`, -1 on
/// EAGAIN (either side), -2 on fatal error, -3 when the kernel refuses
/// splice on these fds altogether (EINVAL — caller falls back to the
/// copy path for good).
long splice_some(int in_fd, int out_fd, std::size_t len);

}  // namespace lsl::posix
