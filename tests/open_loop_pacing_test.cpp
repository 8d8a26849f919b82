// Open-loop pacing correctness on virtual time: the sharded TrafficModel
// engine and Poisson pacing, checked exactly on the simulator.  The
// wall-clock cases (the coordinated-omission regression, the sharded
// engine's aggregate rate and pause/resume) live in
// open_loop_pacing_wallclock_test.cpp, which ctest runs serially.
#include <gtest/gtest.h>

#include <cmath>

#include "checker/tag_order.hpp"
#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "sim/sim_runtime.hpp"

namespace snowkit {
namespace {

// Engine mode on the simulator: virtual-time pacing, exact counts, green
// tag order — and determinism (the whole point of seeded TrafficShards).
TEST(OpenLoopPacing, EngineModeOnSimIsDeterministic) {
  auto run = [](std::uint64_t seed) {
    SimRuntime sim;
    HistoryRecorder rec(8);
    auto sys = build_protocol("algo-c", sim, rec, SystemConfig{8, 2, 2});
    WorkloadSpec spec;
    spec.seed = seed;
    spec.zipf_theta = 0.9;
    DriverOptions opts;
    opts.mode = ArrivalMode::kOpenLoop;
    opts.total_ops = 60;
    opts.arrival_interval_ns = 10'000;
    TrafficModel model;
    model.zipf_theta = 0.9;
    model.permute_ranks = true;
    model.read_fraction = 0.5;
    model.read_span = SpanDist{SpanKind::kUniform, 1, 3, 0.5};
    model.write_span = SpanDist::fixed(2);
    model.logical_clients = 1'000'000;
    opts.traffic = model;
    opts.arrival_shards = 2;
    WorkloadDriver driver(sim, *sys, spec, opts);
    driver.start();
    sim.run_until_idle();
    EXPECT_TRUE(driver.done());
    EXPECT_EQ(driver.completed_reads() + driver.completed_writes(), 60u);
    const auto verdict = check_tag_order(rec.snapshot());
    EXPECT_TRUE(verdict.ok) << verdict.explanation;
    return sim.trace().to_text();
  };
  EXPECT_EQ(run(21), run(21));
  EXPECT_NE(run(21), run(22));
}

// Sampled-Poisson pacing: same nominal rate as the piecewise-constant curve,
// but exponential inter-arrival gaps (CV ~1 instead of exactly 0).  The two
// modes must be STATISTICALLY distinguishable at the same mean, the draws
// must be deterministic per seed, and flipping the flag must not perturb the
// arrival-content stream (the pacer has its own RNG).
TEST(OpenLoopPacing, PoissonGapsShareTheMeanButNotTheShape) {
  constexpr TimeNs kMean = 100'000;  // one segment at 10k ops/s.
  TrafficModel constant;
  constant.rate.segments = {{1e9 / static_cast<double>(kMean), 1'000'000'000}};
  TrafficModel poisson = constant;
  poisson.rate.poisson = true;

  TrafficShard steady(8, constant, /*seed=*/42, 0, 1);
  TrafficShard bursty(8, poisson, /*seed=*/42, 0, 1);

  constexpr std::size_t kDraws = 20'000;
  double sum = 0, sum_sq = 0;
  for (std::size_t i = 0; i < kDraws; ++i) {
    // Piecewise-constant: next_interval IS interval_at, every draw identical.
    ASSERT_EQ(steady.next_interval(0, 1), kMean);
    const auto gap = static_cast<double>(bursty.next_interval(0, 1));
    sum += gap;
    sum_sq += gap * gap;
  }
  const double mean = sum / kDraws;
  const double var = sum_sq / kDraws - mean * mean;
  const double cv = std::sqrt(var) / mean;
  // Exponential: mean = nominal interval, CV = 1.  20k samples put the
  // standard error well under the 10% bands.
  EXPECT_NEAR(mean, static_cast<double>(kMean), 0.05 * kMean)
      << "Poisson pacing drifted off the nominal rate";
  EXPECT_NEAR(cv, 1.0, 0.1) << "gaps are not exponential (piecewise-constant has CV 0)";

  // Determinism: a same-seed shard replays the identical gap sequence.
  TrafficShard replay(8, poisson, /*seed=*/42, 0, 1);
  TrafficShard fresh(8, poisson, /*seed=*/42, 0, 1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(replay.next_interval(0, 1), fresh.next_interval(0, 1));

  // The pacer RNG is dedicated: arrival CONTENT is byte-identical whether or
  // not the pacing draws happened (bursty consumed 20k of them above).
  for (int i = 0; i < 200; ++i) {
    const TrafficArrival a = steady.next();
    const TrafficArrival b = bursty.next();
    EXPECT_EQ(a.is_read, b.is_read);
    EXPECT_EQ(a.logical_client, b.logical_client);
    EXPECT_EQ(a.objects, b.objects);
  }
}

// Poisson pacing rides the absolute-deadline engine unchanged: virtual-time
// run completes every arrival, stays checker-green, and is deterministic.
TEST(OpenLoopPacing, PoissonEngineModeOnSimIsDeterministic) {
  auto run = [](std::uint64_t seed) {
    SimRuntime sim;
    HistoryRecorder rec(8);
    auto sys = build_protocol("algo-c", sim, rec, SystemConfig{8, 2, 2});
    WorkloadSpec spec;
    spec.seed = seed;
    DriverOptions opts;
    opts.mode = ArrivalMode::kOpenLoop;
    opts.total_ops = 60;
    opts.arrival_interval_ns = 10'000;
    TrafficModel model;
    model.read_fraction = 0.5;
    model.logical_clients = 1000;
    model.rate.segments = {{100'000.0, 1'000'000'000}};
    model.rate.poisson = true;
    opts.traffic = model;
    opts.arrival_shards = 2;
    WorkloadDriver driver(sim, *sys, spec, opts);
    driver.start();
    sim.run_until_idle();
    EXPECT_TRUE(driver.done());
    EXPECT_EQ(driver.completed_reads() + driver.completed_writes(), 60u);
    const auto verdict = check_tag_order(rec.snapshot());
    EXPECT_TRUE(verdict.ok) << verdict.explanation;
    return sim.trace().to_text();
  };
  EXPECT_EQ(run(31), run(31));
  EXPECT_NE(run(31), run(32));
}

}  // namespace
}  // namespace snowkit
