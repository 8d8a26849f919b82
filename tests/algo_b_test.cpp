// Algorithm B (§8): SNW + one-version, two rounds, MWMR (Theorem 4).
#include <gtest/gtest.h>

#include "checker/snow_monitor.hpp"
#include "checker/tag_order.hpp"
#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "proto/algo_b/algo_b.hpp"
#include "sim/script.hpp"
#include "sim/sim_runtime.hpp"

namespace snowkit {
namespace {

struct Rig {
  SimRuntime sim;
  HistoryRecorder rec;
  std::unique_ptr<ProtocolSystem> sys;

  Rig(std::size_t k, std::size_t readers, std::size_t writers, std::uint64_t seed = 1,
      ObjectId coor = 0)
      : sim(make_uniform_delay(10, 5000, seed)), rec(k) {
    AlgoBOptions opts;
    opts.coordinator = coor;
    sys = build_algo_b(sim, rec, SystemConfig{k, readers, writers}, opts);
  }
};

TEST(AlgoB, WriteThenReadRoundTrip) {
  Rig rig(3, 1, 1);
  rig.sys->client(0).submit(write_txn({{0, 1}, {1, 2}, {2, 3}}), [](const TxnResult&) {});
  rig.sim.run_until_idle();
  TxnResult result;
  rig.sys->client(0).submit(read_txn({0, 2}), [&](const TxnResult& r) { result = r; });
  rig.sim.run_until_idle();
  ASSERT_EQ(result.values.size(), 2u);
  EXPECT_EQ(result.values[0].second, 1);
  EXPECT_EQ(result.values[1].second, 3);
}

TEST(AlgoB, ExactlyTwoRoundsOneVersion) {
  Rig rig(4, 2, 2);
  WorkloadSpec spec;
  spec.ops_per_reader = 25;
  spec.ops_per_writer = 10;
  spec.read_span = 3;
  WorkloadDriver driver(rig.sim, *rig.sys, spec);
  driver.start();
  rig.sim.run_until_idle();
  const History h = rig.rec.snapshot();
  const auto report = analyze_snow_trace(rig.sim.trace(), 4, h);
  EXPECT_TRUE(report.satisfies_n()) << (report.violations.empty() ? "" : report.violations[0]);
  EXPECT_EQ(report.max_read_rounds, 2);
  EXPECT_EQ(report.max_versions_per_response, 1);
  EXPECT_EQ(max_read_rounds(h), 2);
  EXPECT_EQ(max_read_versions(h), 1);
}

TEST(AlgoB, StrictSerializabilityUnderManyWritersAndReaders) {
  for (std::uint64_t seed : {11ull, 12ull, 13ull, 14ull}) {
    Rig rig(4, 3, 3, seed);
    WorkloadSpec spec;
    spec.ops_per_reader = 50;
    spec.ops_per_writer = 25;
    spec.read_span = 2;
    spec.write_span = 2;
    spec.seed = seed;
    WorkloadDriver driver(rig.sim, *rig.sys, spec);
    driver.start();
    rig.sim.run_until_idle();
    auto verdict = check_tag_order(rig.rec.snapshot());
    EXPECT_TRUE(verdict.ok) << "seed " << seed << ": " << verdict.explanation;
  }
}

TEST(AlgoB, VersionRequestedIsAlwaysPresent) {
  // Round 2 asks each server for the exact kappa_i named by the coordinator;
  // sequencing guarantees presence (no descent needed).  Stress with delays
  // that reorder messages aggressively.
  Rig rig(2, 2, 4, /*seed=*/99);
  WorkloadSpec spec;
  spec.ops_per_reader = 80;
  spec.ops_per_writer = 40;
  WorkloadDriver driver(rig.sim, *rig.sys, spec);
  driver.start();
  rig.sim.run_until_idle();  // VersionStore::get aborts if a key were missing
  EXPECT_TRUE(driver.done());
}

TEST(AlgoB, NonDefaultCoordinator) {
  Rig rig(3, 1, 1, /*seed=*/5, /*coor=*/2);
  rig.sys->client(0).submit(write_txn({{0, 7}}), [](const TxnResult&) {});
  rig.sim.run_until_idle();
  TxnResult result;
  rig.sys->client(0).submit(read_txn({0, 1}), [&](const TxnResult& r) { result = r; });
  rig.sim.run_until_idle();
  EXPECT_EQ(result.values[0].second, 7);
  EXPECT_EQ(result.values[1].second, kInitialValue);
  auto verdict = check_tag_order(rig.rec.snapshot());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(AlgoB, ReadConcurrentWithWriteGetsConsistentCut) {
  // Hold the writer's update-coor: servers already store the new versions
  // but the coordinator's List does not — a READ must return the old cut.
  SimRuntime sim;
  HistoryRecorder rec(2);
  auto sys = build_algo_b(sim, rec, SystemConfig{2, 1, 1});
  sim.start();
  sim.hold_matching(script::payload_is("update-coor"));
  bool w_done = false;
  sys->client(0).submit(write_txn({{0, 10}, {1, 20}}), [&](const TxnResult&) { w_done = true; });
  sim.run_until_idle();
  EXPECT_FALSE(w_done);

  TxnResult result;
  sys->client(0).submit(read_txn({0, 1}), [&](const TxnResult& r) { result = r; });
  sim.run_until_idle();
  EXPECT_EQ(result.values[0].second, kInitialValue);
  EXPECT_EQ(result.values[1].second, kInitialValue);

  sim.release_all();
  sim.run_until_idle();
  EXPECT_TRUE(w_done);
  auto verdict = check_tag_order(rec.snapshot());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

}  // namespace
}  // namespace snowkit
