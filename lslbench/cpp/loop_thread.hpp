// One benchmark role's event loop, on a thread of its own.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "engine/post_queue.hpp"
#include "engine/shard_thread.hpp"
#include "metrics/instruments.hpp"
#include "metrics/metrics.hpp"
#include "posix/epoll_loop.hpp"

namespace lslbench {

/// What a loop's LoopMetrics say at one instant; two snapshots bracket a
/// measurement window.
struct LoopSnapshot {
  std::uint64_t iterations = 0;
  std::uint64_t events = 0;
  double busy_ms = 0.0;  ///< summed dispatch_ms: time spent in callbacks
};

/// Reads the loop.* instruments under `prefix` in `registry` (all zero when
/// they were never registered).
LoopSnapshot snapshot_loop(const lsl::metrics::Registry& registry,
                           const std::string& prefix);

/// p99 of one loop's dispatch_ms histogram (0 when unregistered).
double dispatch_p99_ms(const lsl::metrics::Registry& registry,
                       const std::string& prefix);

/// An EpollLoop, optionally metered by a LoopMetrics bundle, whose
/// run_once() turns on a dedicated thread between start() and stop().
/// Objects registered with the loop are built before start() (or inside
/// call()) and destroyed after stop().
class LoopThread {
 public:
  LoopThread(std::string prefix, bool metered);
  ~LoopThread();

  LoopThread(const LoopThread&) = delete;
  LoopThread& operator=(const LoopThread&) = delete;

  lsl::posix::EpollLoop& loop() { return loop_; }
  const lsl::metrics::Registry& registry() const { return registry_; }
  const std::string& prefix() const { return prefix_; }

  void start();
  /// Stop dispatching and join; idempotent.
  void stop();
  /// Run `fn` on the loop's thread and wait for it (directly when the
  /// thread is not running).
  void call(const std::function<void()>& fn);

 private:
  std::string prefix_;
  lsl::metrics::Registry registry_;
  std::unique_ptr<lsl::metrics::LoopMetrics> metrics_;
  lsl::posix::EpollLoop loop_;
  lsl::engine::PostQueue tasks_;  ///< drained by the loop's wakeup callback
  std::atomic<bool> stop_{false};
  /// Declared last: joined before the members it uses are destroyed.
  lsl::engine::ShardThread thread_;
};

}  // namespace lslbench
