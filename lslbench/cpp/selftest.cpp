// Checks of the benchmark's own code: the percentile rule, failure
// accounting, open-loop timing and the simulator reference check.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "cpp/posix_workloads.hpp"
#include "cpp/sim_workload.hpp"
#include "cpp/stats.hpp"
#include "cpp/workloads.hpp"
#include "util/stats.hpp"

namespace lslbench {
namespace {

int nproc() { return static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN)); }

TEST(Percentile, RefusesP99BelowOneThousandSamples) {
  std::vector<double> samples(999, 1.0);
  EXPECT_FALSE(percentile(samples, 0.99).has_value());
  samples.push_back(2.0);
  const auto p99 = percentile(samples, 0.99);
  ASSERT_TRUE(p99.has_value());
  EXPECT_GE(*p99, 1.0);
  EXPECT_LE(*p99, 2.0);
}

TEST(Percentile, MedianNeedsTwentySamples) {
  std::vector<double> samples(19, 3.0);
  EXPECT_FALSE(percentile(samples, 0.5).has_value());
  samples.push_back(3.0);
  EXPECT_EQ(percentile(samples, 0.5), 3.0);
}

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  std::vector<double> samples;
  for (int i = 40; i >= 1; --i) samples.push_back(i);
  EXPECT_DOUBLE_EQ(*percentile(samples, 0.5), 20.5);
}

TEST(BlockRate, MedianOverBlocksIgnoresOneStall) {
  // 100 events per second for ten seconds, with one two-second stall.
  BlockRate rate;
  rate.start(0);
  std::int64_t t = 0;
  for (int i = 0; i < 1000; ++i) {
    t += i == 500 ? 2'000'000'000 : 10'000'000;
    rate.add(t, 1.0, 4096.0);
  }
  EXPECT_NEAR(rate.sessions_per_s(), 100.0, 0.5);
  EXPECT_NEAR(rate.bytes_per_s(), 409600.0, 2048.0);
}

TEST(Reservoir, KeepsAFixedSampleOfEveryValueOffered) {
  Reservoir r(1000, 5);
  for (int i = 0; i < 100000; ++i) r.add(i % 100);
  EXPECT_EQ(r.offered(), 100000u);
  const std::vector<double> sample = r.sample();
  ASSERT_EQ(sample.size(), 1000u);
  EXPECT_NEAR(*percentile(sample, 0.5), 49.5, 5.0);
}

TEST(PosixPhase, CorruptedSessionCountsAsFailed) {
  TrafficSpec spec;
  spec.inflight = 1;
  spec.classes = {{4096, 1.0}};
  PhaseOptions opt;
  opt.seed = 7;
  opt.seconds = 0.3;
  opt.keep_records = true;
  opt.nproc = nproc();
  opt.corrupt_index = 2;
  const PhaseResult p = run_posix_phase(spec, opt);
  ASSERT_GT(p.sessions.size(), 3u);
  EXPECT_EQ(p.window.attempted, p.sessions.size());
  EXPECT_FALSE(p.sessions[2].source_ok);
  EXPECT_FALSE(p.sessions[2].verified());
  EXPECT_TRUE(p.sessions[1].verified());
  EXPECT_TRUE(p.sessions[3].verified());
  EXPECT_EQ(p.window.verified, p.window.attempted - 1);
  EXPECT_EQ(p.window.wrong, 0u);

  Result r;
  tally_sessions(p, r);
  EXPECT_EQ(r.failed, 1u);
  EXPECT_EQ(r.attempted, p.sessions.size());
  EXPECT_TRUE(r.correct);  // the source was told; nothing wrong was accepted
  EXPECT_DOUBLE_EQ(r.values.at("fail_ratio").value,
                   1.0 / static_cast<double>(p.sessions.size()));
}

TEST(PosixPhase, OpenLoopLatencyStartsAtTheDueTime) {
  // Arrivals far faster than one session at a time can serve: later
  // sessions start well after they were due, and that wait is theirs.
  TrafficSpec spec;
  spec.open_loop = true;
  spec.inflight = 1;
  spec.rate_per_s = 20000.0;
  spec.classes = {{4096, 1.0}};
  PhaseOptions opt;
  opt.seed = 3;
  opt.seconds = 0.2;
  opt.keep_records = true;
  opt.nproc = nproc();
  const PhaseResult p = run_posix_phase(spec, opt);
  ASSERT_FALSE(p.sessions.empty());
  EXPECT_GT(p.cap_hits, 0u);
  EXPECT_EQ(p.window.late_ms.offered(), p.sessions.size());

  double worst_wait_ms = 0.0;
  std::vector<double> latency, service;
  for (const SessionRecord& s : p.sessions) {
    ASSERT_TRUE(s.verified());
    EXPECT_LE(s.due_ns, s.start_ns);
    latency.push_back(s.latency_ms());
    service.push_back((s.done_ns - s.start_ns) / 1e6);
    worst_wait_ms = std::max(worst_wait_ms, (s.start_ns - s.due_ns) / 1e6);
  }
  EXPECT_GT(worst_wait_ms, 1.0);

  // The window's own latency sample is the records' due -> done times.
  std::vector<double> sampled = p.window.latency_ms.sample();
  std::sort(sampled.begin(), sampled.end());
  std::sort(latency.begin(), latency.end());
  EXPECT_EQ(sampled, latency);

  Result r;
  posix_end_to_end(p, r);
  EXPECT_GT(r.values.at("session_p50_ms").value,
            lsl::util::median(service));
}

TEST(SimPhase, DifferenceFromTheReferenceFailsTheRun) {
  const std::string good = std::string(LSLBENCH_DIR) + "/sim_reference.txt";
  const auto ref = load_sim_reference(good);
  ASSERT_TRUE(ref.has_value());
  EXPECT_EQ(ref->size(), sim_cases().size());
  EXPECT_EQ(run_sim_phase(good, 1, 0.0, false).mismatched, 0u);

  const std::string bad = "lslbench_selftest_sim_reference.txt";
  {
    std::ifstream in(good);
    std::ofstream out(bad);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("direct/16384/1 ", 0) == 0) {
        line = "direct/16384/1 1 16384 0.25 0 1";
      }
      out << line << "\n";
    }
  }
  EXPECT_EQ(run_sim_phase(bad, 1, 0.0, false).mismatched, 1u);
  std::remove(bad.c_str());
}

}  // namespace
}  // namespace lslbench
