// mini-Eiger (§6): bounded rounds, but NOT strictly serializable — the
// Fig. 5 counterexample, scripted exactly.
#include <gtest/gtest.h>

#include "checker/serializability.hpp"
#include "checker/snow_monitor.hpp"
#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "proto/eiger/eiger.hpp"
#include "sim/script.hpp"
#include "sim/sim_runtime.hpp"

namespace snowkit {
namespace {

TEST(Eiger, BasicWriteRead) {
  SimRuntime sim;
  HistoryRecorder rec(2);
  auto sys = build_eiger(sim, rec, SystemConfig{2, 1, 1});
  sys->client(0).submit(write_txn({{0, 5}, {1, 6}}), [](const TxnResult&) {});
  sim.run_until_idle();
  TxnResult result;
  sys->client(0).submit(read_txn({0, 1}), [&](const TxnResult& r) { result = r; });
  sim.run_until_idle();
  EXPECT_EQ(result.values[0].second, 5);
  EXPECT_EQ(result.values[1].second, 6);
}

TEST(Eiger, ReadsAreBoundedAtTwoNonBlockingRounds) {
  SimRuntime sim(make_uniform_delay(10, 5000, 77));
  HistoryRecorder rec(4);
  auto sys = build_eiger(sim, rec, SystemConfig{4, 2, 2});
  WorkloadSpec spec;
  spec.ops_per_reader = 40;
  spec.ops_per_writer = 30;
  spec.read_span = 3;
  WorkloadDriver driver(sim, *sys, spec);
  driver.start();
  sim.run_until_idle();
  const History h = rec.snapshot();
  const auto report = analyze_snow_trace(sim.trace(), 4, h);
  EXPECT_TRUE(report.satisfies_n()) << (report.violations.empty() ? "" : report.violations[0]);
  EXPECT_LE(report.max_read_rounds, 2);  // the bounded-latency claim that DOES hold
  EXPECT_LE(max_read_rounds(h), 2);
}

TEST(Eiger, SlowPathReReadsAtEffectiveTime) {
  // Force non-overlapping intervals: write object 0 repeatedly so its
  // versions carry high timestamps while object 1 stays at clock ~0, then
  // interleave a write between the READ's two server arrivals.
  SimRuntime sim;
  HistoryRecorder rec(2);
  auto sys = build_eiger(sim, rec, SystemConfig{2, 1, 1});
  sim.start();
  for (int i = 1; i <= 3; ++i) {
    sys->client(0).submit(write_txn({{0, i * 10}}), [](const TxnResult&) {});
    sim.run_until_idle();
  }
  // Hold the READ's request to s_1; deliver to s_0 first; then another write
  // to object 1 bumps s_1's clock past s_0's interval before m_y arrives.
  sim.hold_matching(script::all_of({script::payload_is("eiger-read"), script::to_node(1)}));
  TxnResult result;
  bool r_done = false;
  sys->client(0).submit(read_txn({0, 1}), [&](const TxnResult& r) {
    result = r;
    r_done = true;
  });
  sim.run_until_idle();
  sys->client(0).submit(write_txn({{1, 99}}), [](const TxnResult&) {});
  sim.run_until_idle();
  sim.hold_matching(nullptr);
  sim.release_all();
  sim.run_until_idle();
  ASSERT_TRUE(r_done);
  const History h = rec.snapshot();
  EXPECT_EQ(max_read_rounds(h), 2);  // slow path engaged
  // The combined result must still be one of the serializable outcomes.
  auto verdict = check_strict_serializability(h);
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(Eiger, Fig5ViolationScripted) {
  // Fig. 5: writers CW1 (w1, w2 on object B) and CW2 (w3 on object A),
  // reader CR with R = {rA, rB}.  The adversary delivers rB at S_B before
  // w2 and rA at S_A after w3; the logical validity intervals overlap, Eiger
  // accepts — but w3 starts after w2 finishes, so R observing w3 while
  // missing w2 violates strict serializability.
  SimRuntime sim;
  HistoryRecorder rec(2);
  auto sys = build_eiger(sim, rec, SystemConfig{2, 1, 2});
  sim.start();
  const ObjectId A = 0;
  const ObjectId B = 1;

  // w1 = write(B, 1) by CW1, completes.
  sys->client(0).submit(write_txn({{B, 1}}), [](const TxnResult&) {});
  sim.run_until_idle();

  // R = {rA, rB} invoked; hold rA (to S_A); deliver rB at S_B now (before w2).
  sim.hold_matching(script::all_of({script::payload_is("eiger-read"), script::to_node(A)}));
  TxnResult result;
  bool r_done = false;
  sys->client(0).submit(read_txn({A, B}), [&](const TxnResult& r) {
    result = r;
    r_done = true;
  });
  sim.run_until_idle();  // rB served: returns w1's value with interval [1, 2]
  EXPECT_FALSE(r_done);

  // w2 = write(B, 2) by CW1 completes; then w3 = write(A, 3) by CW2 —
  // invoked strictly after w2's response.
  bool w2_done = false;
  sys->client(0).submit(write_txn({{B, 2}}), [&](const TxnResult&) { w2_done = true; });
  sim.run_until_idle();
  ASSERT_TRUE(w2_done);
  sys->client(1).submit(write_txn({{A, 3}}), [](const TxnResult&) {});
  sim.run_until_idle();

  // Now deliver rA at S_A: returns w3 with a low logical interval that
  // overlaps rB's.  Eiger accepts in one round.
  sim.hold_matching(nullptr);
  sim.release_all();
  sim.run_until_idle();
  ASSERT_TRUE(r_done);
  EXPECT_EQ(result.values[0].second, 3);  // rA = w3
  EXPECT_EQ(result.values[1].second, 1);  // rB = w1  (missed w2!)

  // Pins the whole scripted schedule.
  EXPECT_EQ(trace_fingerprint(sim.trace()), 13280454014873184967ull);

  const History h = rec.snapshot();
  auto verdict = check_strict_serializability(h);
  EXPECT_FALSE(verdict.ok) << "Fig. 5 history must not be strictly serializable";
  EXPECT_FALSE(find_stale_reread(h).empty() && verdict.ok);
}

TEST(Eiger, RandomWorkloadsStayCausallyPlausibleButMayViolateS) {
  // Not an invariant test: documents that random (non-adversarial) runs of
  // mini-Eiger usually pass the checker — the violation needs a targeted
  // schedule, which is why the original claim survived review.
  int violations = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SimRuntime sim(make_uniform_delay(10, 3000, seed));
    HistoryRecorder rec(3);
    auto sys = build_eiger(sim, rec, SystemConfig{3, 2, 2});
    WorkloadSpec spec;
    spec.ops_per_reader = 12;
    spec.ops_per_writer = 6;
    spec.read_span = 2;
    spec.seed = seed;
    WorkloadDriver driver(sim, *sys, spec);
    driver.start();
    sim.run_until_idle();
    auto verdict = check_strict_serializability(rec.snapshot(), CheckOptions{200'000});
    if (!verdict.ok && !verdict.exhausted) ++violations;
  }
  SUCCEED() << violations << " of 6 random runs violated S";
}

}  // namespace
}  // namespace snowkit
