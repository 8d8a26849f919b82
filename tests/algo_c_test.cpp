// Algorithm C (§9): SNW + one-round, multi-version, MWMR (Theorem 5),
// including the feasibility descent and the bounded-version GC extension.
#include <gtest/gtest.h>

#include "checker/snow_monitor.hpp"
#include "checker/tag_order.hpp"
#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "proto/algo_c/algo_c.hpp"
#include "sim/script.hpp"
#include "sim/sim_runtime.hpp"

namespace snowkit {
namespace {

struct Rig {
  SimRuntime sim;
  HistoryRecorder rec;
  std::unique_ptr<ProtocolSystem> sys;

  Rig(std::size_t k, std::size_t readers, std::size_t writers, std::uint64_t seed = 1,
      bool gc = false)
      : sim(make_uniform_delay(10, 5000, seed)), rec(k) {
    AlgoCOptions opts;
    opts.gc_versions = gc;
    sys = build_algo_c(sim, rec, SystemConfig{k, readers, writers}, opts);
  }
};

TEST(AlgoC, WriteThenReadRoundTrip) {
  Rig rig(3, 1, 1);
  rig.sys->client(0).submit(write_txn({{0, 1}, {2, 3}}), [](const TxnResult&) {});
  rig.sim.run_until_idle();
  TxnResult result;
  rig.sys->client(0).submit(read_txn({0, 1, 2}), [&](const TxnResult& r) { result = r; });
  rig.sim.run_until_idle();
  EXPECT_EQ(result.values[0].second, 1);
  EXPECT_EQ(result.values[1].second, kInitialValue);
  EXPECT_EQ(result.values[2].second, 3);
}

TEST(AlgoC, OneRoundMultipleVersions) {
  Rig rig(3, 2, 3);
  WorkloadSpec spec;
  spec.ops_per_reader = 30;
  spec.ops_per_writer = 20;
  spec.read_span = 2;
  WorkloadDriver driver(rig.sim, *rig.sys, spec);
  driver.start();
  rig.sim.run_until_idle();
  const History h = rig.rec.snapshot();
  const auto report = analyze_snow_trace(rig.sim.trace(), 3, h);
  EXPECT_TRUE(report.satisfies_n()) << (report.violations.empty() ? "" : report.violations[0]);
  EXPECT_EQ(report.max_read_rounds, 1);      // the one-round property
  EXPECT_GT(report.max_versions_per_response, 1);  // ...paid for in versions
  EXPECT_EQ(max_read_rounds(h), 1);
}

TEST(AlgoC, StrictSerializabilityUnderManyWritersAndReaders) {
  for (std::uint64_t seed : {21ull, 22ull, 23ull, 24ull}) {
    Rig rig(4, 3, 3, seed);
    WorkloadSpec spec;
    spec.ops_per_reader = 50;
    spec.ops_per_writer = 25;
    spec.read_span = 3;
    spec.write_span = 2;
    spec.seed = seed;
    WorkloadDriver driver(rig.sim, *rig.sys, spec);
    driver.start();
    rig.sim.run_until_idle();
    auto verdict = check_tag_order(rig.rec.snapshot());
    EXPECT_TRUE(verdict.ok) << "seed " << seed << ": " << verdict.explanation;
  }
}

TEST(AlgoC, DescentHandlesOvertakingReadVals) {
  // Force the race the descent exists for: the reader's read-vals reaches
  // s_y BEFORE the concurrent write lands there, while get-tag-arr reaches
  // the coordinator AFTER update-coor.  kappa_y is then missing from Vals_y
  // and the reader must fall back to the previous cut.
  SimRuntime sim;
  HistoryRecorder rec(2);
  AlgoCOptions opts;
  opts.gc_versions = false;  // GC-off: the descent must SETTLE (no retry path)
  auto sys = build_algo_c(sim, rec, SystemConfig{2, 1, 1}, opts);
  sim.start();

  // Script: hold W's write-val to s_y (object 1) and the READ's messages.
  sim.hold_matching(script::any_of(
      {script::all_of({script::payload_is("write-val"), script::to_node(1)}),
       script::payload_is("read-vals"), script::payload_is("get-tag-arr")}));

  bool w_done = false;
  sys->client(0).submit(write_txn({{0, 10}, {1, 20}}), [&](const TxnResult&) { w_done = true; });
  sim.run_until_idle();  // write-val@s_x delivered+acked; write-val@s_y held

  TxnResult result;
  bool r_done = false;
  sys->client(0).submit(read_txn({0, 1}), [&](const TxnResult& r) {
    result = r;
    r_done = true;
  });
  sim.run_until_idle();

  // Deliver read-vals to BOTH servers now (s_y has no new version yet)...
  ASSERT_TRUE(script::release_one(sim, script::all_of({script::payload_is("read-vals"),
                                                       script::to_node(0)})));
  ASSERT_TRUE(script::release_one(sim, script::all_of({script::payload_is("read-vals"),
                                                       script::to_node(1)})));
  sim.run_until_idle();
  // ...then let the write finish (write-val@s_y, update-coor)...
  ASSERT_TRUE(script::release_one(sim, script::payload_is("write-val")));
  sim.run_until_idle();
  ASSERT_TRUE(w_done);
  // ...and only now deliver get-tag-arr: t_r names the new write, whose key
  // is absent from the reader's Vals_y snapshot.
  ASSERT_TRUE(script::release_one(sim, script::payload_is("get-tag-arr")));
  sim.run_until_idle();
  ASSERT_TRUE(r_done);
  // Descent must have settled on the old consistent cut.
  EXPECT_EQ(result.values[0].second, kInitialValue);
  EXPECT_EQ(result.values[1].second, kInitialValue);
  auto verdict = check_tag_order(rec.snapshot());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(AlgoC, GcBoundsResponseSizes) {
  // Without GC the response size grows with the whole write history; with GC
  // it stays bounded by |W| + 1: one anchor version plus the writes
  // concurrent with some in-flight READ (the watermark cannot pass a
  // registered read's floor).  With closed-loop reads back to back, each
  // writer can overlap a read window with at most two WRITEs under fixed
  // delays, so the bound here is 2 * writers + 1 — independent of the 40-op
  // history length either way.
  auto run = [](bool gc) {
    SimRuntime sim(make_fixed_delay(1000));
    HistoryRecorder rec(2);
    AlgoCOptions opts;
    opts.gc_versions = gc;
    auto sys = build_algo_c(sim, rec, SystemConfig{2, 1, 2}, opts);
    WorkloadSpec spec;
    spec.ops_per_reader = 40;
    spec.ops_per_writer = 40;
    spec.read_span = 2;
    spec.write_span = 2;
    WorkloadDriver driver(sim, *sys, spec);
    driver.start();
    sim.run_until_idle();
    auto verdict = check_tag_order(rec.snapshot());
    EXPECT_TRUE(verdict.ok) << "gc=" << gc << ": " << verdict.explanation;
    return max_read_versions(rec.snapshot());
  };
  const int without_gc = run(false);
  const int with_gc = run(true);
  EXPECT_GT(without_gc, 10);      // grows with history length
  EXPECT_LE(with_gc, 2 * 2 + 1);  // |W| + 1 over the read window
}

TEST(AlgoC, GcPreservesStrictSerializabilityAcrossSeeds) {
  for (std::uint64_t seed = 31; seed < 39; ++seed) {
    Rig rig(3, 2, 3, seed, /*gc=*/true);
    WorkloadSpec spec;
    spec.ops_per_reader = 40;
    spec.ops_per_writer = 20;
    spec.read_span = 2;
    spec.seed = seed;
    WorkloadDriver driver(rig.sim, *rig.sys, spec);
    driver.start();
    rig.sim.run_until_idle();
    auto verdict = check_tag_order(rig.rec.snapshot());
    EXPECT_TRUE(verdict.ok) << "seed " << seed << ": " << verdict.explanation;
  }
}

TEST(AlgoC, CoordinatorAlsoServesItsObject) {
  Rig rig(2, 1, 1);
  rig.sys->client(0).submit(write_txn({{0, 77}}), [](const TxnResult&) {});
  rig.sim.run_until_idle();
  TxnResult result;
  rig.sys->client(0).submit(read_txn({0}), [&](const TxnResult& r) { result = r; });
  rig.sim.run_until_idle();
  EXPECT_EQ(result.values[0].second, 77);  // get-tag-arr + read-vals both at s*
}

// A READ whose objects are disjoint from a WRITE's must still record a tag
// at or above that WRITE's when the WRITE completed before the READ began.
// Every cut between the first feasible candidate c and the next candidate
// above it resolves identically, so the reader records the highest of them;
// recording c itself can invert real-time order (Lemma 20 P2).  The workload
// is the open-loop engine at 2000 arrivals/s of virtual time: k = 64 on 4
// range-placed servers, Zipf 0.99 with permuted ranks, 10 % READs of
// geometric span 1-4, no replication; with seed 4, recording c inverts the
// order within the first ten transactions.
TEST(AlgoC, DisjointEarlierWriteNeverOutranksALaterRead) {
  const std::uint64_t seed = 4;
  SimRuntime sim(make_uniform_delay(50'000, 2'000'000, seed));
  HistoryRecorder rec(64);
  auto sys = build_protocol("algo-c", sim, rec, SystemConfig{64, 4, 4, 4, PlacementKind::kRange});
  TrafficModel model;
  model.zipf_theta = 0.99;
  model.permute_ranks = true;
  model.read_fraction = 0.1;
  model.read_span = SpanDist{SpanKind::kGeometric, 1, 4, 0.5};
  model.write_span = SpanDist::fixed(2);
  model.logical_clients = 1'000'000;
  DriverOptions opts;
  opts.mode = ArrivalMode::kOpenLoop;
  opts.total_ops = 2000;
  opts.arrival_interval_ns = 500'000;  // 2000 arrivals/s
  opts.traffic = model;
  opts.arrival_shards = 4;
  WorkloadSpec spec;
  spec.seed = seed ^ 0x3a3dull;
  WorkloadDriver driver(sim, *sys, spec, opts);
  driver.start();
  sim.run_until_idle();
  ASSERT_TRUE(driver.done());
  const TagOrderResult verdict = check_tag_order(rec.snapshot());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

}  // namespace
}  // namespace snowkit
