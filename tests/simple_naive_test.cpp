// The simple (non-transactional) and naive (fake-transactional) protocols.
#include <gtest/gtest.h>

#include "checker/serializability.hpp"
#include "checker/snow_monitor.hpp"
#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "proto/naive/naive.hpp"
#include "proto/simple/simple.hpp"
#include "sim/script.hpp"
#include "sim/sim_runtime.hpp"

namespace snowkit {
namespace {

TEST(Simple, OneRoundNonBlocking) {
  SimRuntime sim(make_uniform_delay(10, 3000, 5));
  HistoryRecorder rec(4);
  auto sys = build_simple(sim, rec, SystemConfig{4, 2, 1});
  WorkloadSpec spec;
  spec.ops_per_reader = 20;
  spec.ops_per_writer = 10;
  spec.read_span = 3;
  WorkloadDriver driver(sim, *sys, spec);
  driver.start();
  sim.run_until_idle();
  const History h = rec.snapshot();
  const auto report = analyze_snow_trace(sim.trace(), 4, h);
  EXPECT_TRUE(report.satisfies_n());
  EXPECT_TRUE(report.satisfies_o());
  EXPECT_EQ(max_read_rounds(h), 1);
}

TEST(Naive, FracturedReadUnderAdversary) {
  // Deliver the READ between the write's two server updates: the classic
  // fracture (x1, y0) — the concrete face of the SNOW Theorem.
  SimRuntime sim;
  HistoryRecorder rec(2);
  auto sys = build_naive(sim, rec, SystemConfig{2, 1, 1});
  sim.start();
  sim.hold_matching(script::all_of({script::payload_is("simple-write"), script::to_node(1)}));
  bool w_done = false;
  sys->client(0).submit(write_txn({{0, 10}, {1, 20}}), [&](const TxnResult&) { w_done = true; });
  sim.run_until_idle();  // object 0 updated; object 1's write held
  EXPECT_FALSE(w_done);

  TxnResult result;
  sys->client(0).submit(read_txn({0, 1}), [&](const TxnResult& r) { result = r; });
  sim.run_until_idle();
  EXPECT_EQ(result.values[0].second, 10);
  EXPECT_EQ(result.values[1].second, kInitialValue);

  sim.hold_matching(nullptr);
  sim.release_all();
  sim.run_until_idle();
  EXPECT_TRUE(w_done);  // W still completes (the W property held)

  const History h = rec.snapshot();
  auto verdict = check_strict_serializability(h);
  EXPECT_FALSE(verdict.ok);
  EXPECT_FALSE(find_fractured_read(h).empty());
}

TEST(Naive, BenignSchedulesLookSerializable) {
  // With writes draining between reads, naive looks fine — the violation is
  // a property of adversarial interleavings, not of every run.
  SimRuntime sim;
  HistoryRecorder rec(2);
  auto sys = build_naive(sim, rec, SystemConfig{2, 1, 1});
  for (int i = 1; i <= 5; ++i) {
    sys->client(0).submit(write_txn({{0, i * 10}, {1, i * 10 + 1}}), [](const TxnResult&) {});
    sim.run_until_idle();
    sys->client(0).submit(read_txn({0, 1}), [](const TxnResult&) {});
    sim.run_until_idle();
  }
  auto verdict = check_strict_serializability(rec.snapshot());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(Naive, ProtocolRegistryTraits) {
  EXPECT_FALSE(claims_strict_serializability("naive"));
  EXPECT_FALSE(provides_tags("naive"));
  EXPECT_TRUE(claims_strict_serializability("algo-b"));
  EXPECT_TRUE(provides_tags("algo-c"));
  const ProtocolTraits& naive = ProtocolRegistry::global().traits("naive");
  EXPECT_TRUE(naive.snow_n && naive.snow_o && naive.snow_w);
  EXPECT_FALSE(naive.snow_s);  // the SNOW Theorem, as a capability record
}

TEST(Simple, BuildViaRegistry) {
  SimRuntime sim;
  HistoryRecorder rec(2);
  auto sys = build_protocol("simple", sim, rec, SystemConfig{2, 1, 1});
  EXPECT_EQ(sys->name(), "simple");
  EXPECT_EQ(sys->num_objects(), 2u);
  EXPECT_EQ(sys->num_readers(), 1u);
  EXPECT_EQ(sys->num_writers(), 1u);
}

}  // namespace
}  // namespace snowkit
