#include "cpp/loop_thread.hpp"

#include <future>
#include <utility>

namespace lslbench {

LoopSnapshot snapshot_loop(const lsl::metrics::Registry& registry,
                           const std::string& prefix) {
  LoopSnapshot s;
  if (const auto* c = registry.find_counter(prefix + ".iterations")) {
    s.iterations = c->value();
  }
  if (const auto* c = registry.find_counter(prefix + ".events_dispatched")) {
    s.events = c->value();
  }
  if (const auto* h = registry.find_histogram(prefix + ".dispatch_ms")) {
    s.busy_ms = h->sum();
  }
  return s;
}

double dispatch_p99_ms(const lsl::metrics::Registry& registry,
                       const std::string& prefix) {
  const auto* h = registry.find_histogram(prefix + ".dispatch_ms");
  return h != nullptr && h->count() > 0 ? h->percentile(0.99) : 0.0;
}

LoopThread::LoopThread(std::string prefix, bool metered)
    : prefix_(std::move(prefix)) {
  if (metered) {
    metrics_ = std::make_unique<lsl::metrics::LoopMetrics>(registry_, prefix_);
    loop_.set_metrics(metrics_.get());
  }
  loop_.set_wakeup_callback([this] { tasks_.drain(); });
}

LoopThread::~LoopThread() { stop(); }

void LoopThread::start() {
  stop_.store(false);
  thread_ = lsl::engine::ShardThread([this] {
    while (!stop_.load(std::memory_order_acquire)) loop_.run_once(-1);
  });
}

void LoopThread::stop() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_release);
  loop_.wakeup();
  thread_.join();
}

void LoopThread::call(const std::function<void()>& fn) {
  if (!thread_.joinable()) {
    fn();
    return;
  }
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  const bool was_empty = tasks_.post([&fn, &done] {
    fn();
    done.set_value();
  });
  if (was_empty) loop_.wakeup();
  finished.wait();
}

}  // namespace lslbench
