// Algorithm A (§5.2): SNOW in MWSR with C2C communication (Theorem 3).
#include <gtest/gtest.h>

#include "checker/serializability.hpp"
#include "checker/snow_monitor.hpp"
#include "checker/tag_order.hpp"
#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "proto/algo_a/algo_a.hpp"
#include "sim/script.hpp"
#include "sim/sim_runtime.hpp"

namespace snowkit {
namespace {

struct Rig {
  SimRuntime sim;
  HistoryRecorder rec;
  std::unique_ptr<ProtocolSystem> sys;

  Rig(std::size_t k, std::size_t writers, std::uint64_t seed = 1)
      : sim(make_uniform_delay(10, 5000, seed)), rec(k) {
    sys = build_algo_a(sim, rec, SystemConfig{k, 1, writers});
  }
};

TEST(AlgoA, SingleWriteThenRead) {
  Rig rig(2, 1);
  bool w_done = false;
  rig.sys->client(0).submit(write_txn({{0, 10}, {1, 20}}),
                            [&](const TxnResult&) { w_done = true; });
  rig.sim.run_until_idle();
  ASSERT_TRUE(w_done);

  TxnResult result;
  rig.sys->client(0).submit(read_txn({0, 1}), [&](const TxnResult& r) { result = r; });
  rig.sim.run_until_idle();
  ASSERT_EQ(result.values.size(), 2u);
  EXPECT_EQ(result.values[0], (std::pair<ObjectId, Value>{0, 10}));
  EXPECT_EQ(result.values[1], (std::pair<ObjectId, Value>{1, 20}));
}

TEST(AlgoA, ReadBeforeAnyWriteReturnsInitial) {
  Rig rig(3, 1);
  TxnResult result;
  rig.sys->client(0).submit(read_txn({0, 1, 2}), [&](const TxnResult& r) { result = r; });
  rig.sim.run_until_idle();
  for (const auto& [obj, v] : result.values) EXPECT_EQ(v, kInitialValue) << "object " << obj;
}

TEST(AlgoA, PartialWriteSetLookup) {
  // Write only object 1; a read of {0,1} must see initial for 0.
  Rig rig(2, 1);
  rig.sys->client(0).submit(write_txn({{1, 5}}), [](const TxnResult&) {});
  rig.sim.run_until_idle();
  TxnResult result;
  rig.sys->client(0).submit(read_txn({0, 1}), [&](const TxnResult& r) { result = r; });
  rig.sim.run_until_idle();
  EXPECT_EQ(result.values[0].second, kInitialValue);
  EXPECT_EQ(result.values[1].second, 5);
}

TEST(AlgoA, ConcurrentReadIsSnapshotOfList) {
  // Hold the info-reader: the reader's List does not change, so a READ
  // concurrent with the WRITE returns the OLD consistent snapshot (never a
  // fractured mix), even though both servers already store the new values.
  SimRuntime sim;
  HistoryRecorder rec(2);
  auto sys = build_algo_a(sim, rec, SystemConfig{2, 1, 1});
  sim.start();
  sim.hold_matching(script::payload_is("info-reader"));
  bool w_done = false;
  sys->client(0).submit(write_txn({{0, 10}, {1, 20}}), [&](const TxnResult&) { w_done = true; });
  sim.run_until_idle();
  EXPECT_FALSE(w_done);  // blocked on info-reader ack

  TxnResult result;
  sys->client(0).submit(read_txn({0, 1}), [&](const TxnResult& r) { result = r; });
  sim.run_until_idle();
  EXPECT_EQ(result.values[0].second, kInitialValue);
  EXPECT_EQ(result.values[1].second, kInitialValue);

  sim.release_all();
  sim.run_until_idle();
  EXPECT_TRUE(w_done);
  auto verdict = check_strict_serializability(rec.snapshot());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(AlgoA, TagOrderHoldsUnderRandomWorkload) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    Rig rig(4, 3, seed);
    WorkloadSpec spec;
    spec.ops_per_reader = 60;
    spec.ops_per_writer = 25;
    spec.read_span = 3;
    spec.write_span = 2;
    spec.seed = seed;
    WorkloadDriver driver(rig.sim, *rig.sys, spec);
    driver.start();
    rig.sim.run_until_idle();
    ASSERT_TRUE(driver.done());
    const History h = rig.rec.snapshot();
    auto verdict = check_tag_order(h);
    EXPECT_TRUE(verdict.ok) << "seed " << seed << ": " << verdict.explanation;
  }
}

TEST(AlgoA, SnowPropertiesHoldOnTrace) {
  Rig rig(3, 2);
  WorkloadSpec spec;
  spec.ops_per_reader = 30;
  spec.ops_per_writer = 10;
  spec.read_span = 2;
  WorkloadDriver driver(rig.sim, *rig.sys, spec);
  driver.start();
  rig.sim.run_until_idle();
  const History h = rig.rec.snapshot();
  const auto report = analyze_snow_trace(rig.sim.trace(), 3, h);
  EXPECT_TRUE(report.satisfies_n()) << (report.violations.empty() ? "" : report.violations[0]);
  EXPECT_TRUE(report.satisfies_o());
  EXPECT_EQ(report.max_read_rounds, 1);
  EXPECT_EQ(report.max_versions_per_response, 1);
  EXPECT_EQ(max_read_rounds(h), 1);
}

TEST(AlgoA, WritesEventuallyCompleteUnderConcurrency) {
  Rig rig(2, 4);
  WorkloadSpec spec;
  spec.ops_per_reader = 20;
  spec.ops_per_writer = 20;
  WorkloadDriver driver(rig.sim, *rig.sys, spec);
  driver.start();
  rig.sim.run_until_idle();
  const History h = rig.rec.snapshot();
  EXPECT_EQ(h.completed_writes(), 4u * 20u);  // the W property
}

TEST(AlgoA, RefusesMultipleReadersByDefault) {
  SimRuntime sim;
  HistoryRecorder rec(2);
  EXPECT_DEATH(build_algo_a(sim, rec, SystemConfig{2, 2, 1}), "MWSR");
}

TEST(AlgoA, MultiReaderDemoViolatesS) {
  // The Fig. 1(a) ✗-cell: two readers + one writer.  Delay r2's info-reader;
  // r1 reads new values, then r2 (strictly later) reads old values.
  SimRuntime sim;
  HistoryRecorder rec(2);
  AlgoAOptions opts;
  opts.allow_multiple_readers = true;
  auto sys = build_algo_a(sim, rec, SystemConfig{2, 2, 1}, opts);
  sim.start();
  const NodeId r2_node = sys->reader_node(1);
  sim.hold_matching(script::all_of({script::payload_is("info-reader"), script::to_node(r2_node)}));

  sys->client(0).submit(write_txn({{0, 10}, {1, 20}}), [](const TxnResult&) {});
  sim.run_until_idle();

  TxnResult r1;
  sys->client(0).submit(read_txn({0, 1}), [&](const TxnResult& r) { r1 = r; });
  sim.run_until_idle();
  EXPECT_EQ(r1.values[0].second, 10);  // r1 sees the new version

  TxnResult r2;
  sys->client(1).submit(read_txn({0, 1}), [&](const TxnResult& r) { r2 = r; });
  sim.run_until_idle();
  EXPECT_EQ(r2.values[0].second, kInitialValue);  // r2, later, sees the old one

  sim.release_all();
  sim.run_until_idle();
  const History h = rec.snapshot();
  auto verdict = check_strict_serializability(h);
  EXPECT_FALSE(verdict.ok);
  EXPECT_FALSE(find_stale_reread(h).empty());
}

}  // namespace
}  // namespace snowkit
