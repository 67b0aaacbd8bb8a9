// The benchmark's clocks: CLOCK_MONOTONIC (the depots' span timebase) and
// the process's CPU time.
#pragma once

#include <sys/resource.h>

#include <cstdint>

#include "engine/timer.hpp"

namespace lslbench {

inline std::int64_t now_ns() { return lsl::engine::EngineTimer::now_ns(); }

/// User + system CPU seconds of the whole process (every thread).
inline double cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

}  // namespace lslbench
