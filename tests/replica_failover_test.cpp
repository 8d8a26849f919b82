// Crash-tolerant shards (proto/replica.hpp) under the simulator's exact
// failure detector: primaries die mid-transaction, backups take over, and the
// oracle conditions are (1) no acknowledged write is ever lost, (2) reads
// stay non-blocking and strictly serializable across the failover.
#include <gtest/gtest.h>

#include "checker/snow_monitor.hpp"
#include "checker/tag_order.hpp"
#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "proto/algo_b/algo_b.hpp"
#include "proto/algo_c/algo_c.hpp"
#include "sim/script.hpp"
#include "sim/sim_runtime.hpp"

namespace snowkit {
namespace {

// Node layout with replicas=2: servers [0,k), readers/writers [k, k+R+W),
// backup of shard s at k+R+W+s (proto/algo_b/algo_b.cpp keeps the plain
// layout untouched so recorded schedules stay valid).
NodeId backup_of(std::size_t k, std::size_t readers, std::size_t writers, std::size_t shard) {
  return static_cast<NodeId>(k + readers + writers + shard);
}

struct Rig {
  SimRuntime sim;
  HistoryRecorder rec;
  std::unique_ptr<ProtocolSystem> sys;

  Rig(bool algo_c, std::size_t k, std::size_t readers, std::size_t writers,
      std::uint64_t seed = 1)
      : sim(make_uniform_delay(10, 5000, seed)), rec(k) {
    if (algo_c) {
      AlgoCOptions opts;
      opts.replicas = 2;
      sys = build_algo_c(sim, rec, SystemConfig{k, readers, writers}, opts);
    } else {
      AlgoBOptions opts;
      opts.replicas = 2;
      sys = build_algo_b(sim, rec, SystemConfig{k, readers, writers}, opts);
    }
  }
};

void expect_clean_history(Rig& rig, const char* what) {
  const auto verdict = check_tag_order(rig.rec.snapshot());
  EXPECT_TRUE(verdict.ok) << what << ": " << verdict.explanation;
}

// --- failure-free replicated fleets behave exactly like the paper's ---------

TEST(ReplicaFailover, AlgoBReplicatedFleetKeepsTwoRoundsOneVersion) {
  Rig rig(false, 3, 2, 2);
  WorkloadSpec spec;
  spec.ops_per_reader = 25;
  spec.ops_per_writer = 10;
  spec.read_span = 2;
  WorkloadDriver driver(rig.sim, *rig.sys, spec);
  driver.start();
  rig.sim.run_until_idle();
  EXPECT_TRUE(driver.done());
  const History h = rig.rec.snapshot();
  const auto report = analyze_snow_trace(rig.sim.trace(), 3, h);
  EXPECT_TRUE(report.satisfies_n()) << (report.violations.empty() ? "" : report.violations[0]);
  // Replication must not cost the client anything: still 2 rounds, 1 version.
  EXPECT_EQ(report.max_read_rounds, 2);
  EXPECT_EQ(report.max_versions_per_response, 1);
  expect_clean_history(rig, "algo-b replicated, no faults");
}

TEST(ReplicaFailover, AlgoCReplicatedFleetKeepsOneRound) {
  Rig rig(true, 3, 2, 2);
  WorkloadSpec spec;
  spec.ops_per_reader = 25;
  spec.ops_per_writer = 10;
  spec.read_span = 2;
  WorkloadDriver driver(rig.sim, *rig.sys, spec);
  driver.start();
  rig.sim.run_until_idle();
  EXPECT_TRUE(driver.done());
  const History h = rig.rec.snapshot();
  const auto report = analyze_snow_trace(rig.sim.trace(), 3, h);
  EXPECT_TRUE(report.satisfies_n()) << (report.violations.empty() ? "" : report.violations[0]);
  EXPECT_EQ(report.max_read_rounds, 1);
  expect_clean_history(rig, "algo-c replicated, no faults");
}

// --- killing a primary mid-run ----------------------------------------------

void crash_mid_workload(bool algo_c, std::size_t victim_shard, std::uint64_t seed) {
  Rig rig(algo_c, 3, 2, 2, seed);
  WorkloadSpec spec;
  spec.ops_per_reader = 30;
  spec.ops_per_writer = 15;
  spec.read_span = 2;
  spec.write_span = 2;
  spec.seed = seed;
  WorkloadDriver driver(rig.sim, *rig.sys, spec);
  driver.start();
  // Let some transactions commit, then kill the primary with traffic in
  // flight.  Shard 0 is the coordinator, so victim_shard=0 also exercises
  // CoorList takeover and read-round restarts.
  rig.sim.run_until([&] { return driver.completed_writes() >= 5; });
  ASSERT_TRUE(rig.sim.can_crash(static_cast<NodeId>(victim_shard)));
  rig.sim.crash(static_cast<NodeId>(victim_shard));
  rig.sim.run_until_idle();
  // Every submitted transaction still completes: clients re-route to the
  // backup and retry, and no acknowledged write is lost (a lost write would
  // surface as a tag-order violation in a later read).
  EXPECT_TRUE(driver.done()) << "workload wedged after crashing shard " << victim_shard;
  const auto report = analyze_snow_trace(rig.sim.trace(), 3, rig.rec.snapshot());
  EXPECT_TRUE(report.satisfies_n())
      << "reads blocked across failover: "
      << (report.violations.empty() ? "" : report.violations[0]);
  expect_clean_history(rig, algo_c ? "algo-c failover" : "algo-b failover");
}

TEST(ReplicaFailover, AlgoBSurvivesDataShardCrash) {
  for (std::uint64_t seed : {21ull, 22ull, 23ull}) crash_mid_workload(false, 1, seed);
}

TEST(ReplicaFailover, AlgoBSurvivesCoordinatorCrash) {
  for (std::uint64_t seed : {31ull, 32ull, 33ull}) crash_mid_workload(false, 0, seed);
}

TEST(ReplicaFailover, AlgoCSurvivesDataShardCrash) {
  for (std::uint64_t seed : {41ull, 42ull, 43ull}) crash_mid_workload(true, 2, seed);
}

TEST(ReplicaFailover, AlgoCSurvivesCoordinatorCrash) {
  for (std::uint64_t seed : {51ull, 52ull, 53ull}) crash_mid_workload(true, 0, seed);
}

// --- WAL recovery: restart, rejoin, and survive a SECOND failover ------------

TEST(ReplicaFailover, RestartedPrimaryRejoinsAndTakesOverAgain) {
  Rig rig(false, 2, 1, 1);
  const NodeId backup1 = backup_of(2, 1, 1, 1);
  auto write = [&](Value a, Value b) {
    bool done = false;
    rig.sys->client(0).submit(write_txn({{0, a}, {1, b}}), [&](const TxnResult&) { done = true; });
    rig.sim.run_until_idle();
    EXPECT_TRUE(done);
  };
  auto read = [&](Value a, Value b) {
    TxnResult result;
    rig.sys->client(0).submit(read_txn({0, 1}), [&](const TxnResult& r) { result = r; });
    rig.sim.run_until_idle();
    ASSERT_EQ(result.values.size(), 2u);
    EXPECT_EQ(result.values[0].second, a);
    EXPECT_EQ(result.values[1].second, b);
  };

  write(10, 20);
  rig.sim.crash(1);  // shard 1's first primary dies
  rig.sim.run_until_idle();
  write(11, 21);  // committed by the backup-turned-primary
  read(11, 21);

  rig.sim.restart(1);  // old primary recovers from its WAL, rejoins as backup
  rig.sim.run_until_idle();
  EXPECT_TRUE(rig.sim.can_crash(backup1));
  rig.sim.crash(backup1);  // now kill the shard's SECOND primary
  rig.sim.run_until_idle();
  // The restarted node took over with full state: everything the dead
  // primary acknowledged — including writes from after the first failover
  // that the restarted node only saw via the rejoin catch-up — survives.
  read(11, 21);
  write(12, 22);
  read(12, 22);
  expect_clean_history(rig, "restart + second failover");
}

// --- update-coor retry dedup -------------------------------------------------

TEST(ReplicaFailover, UpdateCoorRetryIsDeduplicatedNotDoubleListed) {
  // Kill the coordinator AFTER it lists + replicates a WRITE but BEFORE the
  // writer sees the ack.  The writer's retry against the new primary must be
  // answered from the dedup table with the ORIGINAL List position — listing
  // it twice would give the WRITE two serialization points.
  Rig rig(false, 2, 1, 1);
  rig.sim.start();
  rig.sim.hold_matching(script::payload_is("update-coor-ack"));
  bool w_done = false;
  rig.sys->client(0).submit(write_txn({{0, 10}, {1, 20}}),
                            [&](const TxnResult&) { w_done = true; });
  rig.sim.run_until_idle();
  ASSERT_FALSE(w_done);  // listed and replicated, but the ack is held
  ASSERT_GE(rig.sim.held_count(), 1u);

  rig.sim.hold_matching(nullptr);  // the retry's ack must get through
  rig.sim.crash(0);
  rig.sim.run_until_idle();
  EXPECT_TRUE(w_done) << "retry against the new coordinator was not re-acked";

  TxnResult result;
  rig.sys->client(0).submit(read_txn({0, 1}), [&](const TxnResult& r) { result = r; });
  rig.sim.run_until_idle();
  ASSERT_EQ(result.values.size(), 2u);
  EXPECT_EQ(result.values[0].second, 10);
  EXPECT_EQ(result.values[1].second, 20);

  // The stale ack from the dead lineage arrives last; clients ignore it.
  rig.sim.release_all();
  rig.sim.run_until_idle();
  expect_clean_history(rig, "update-coor dedup");
}

}  // namespace
}  // namespace snowkit
