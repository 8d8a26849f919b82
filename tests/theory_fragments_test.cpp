// Fragment extraction and Lemma-2 commuting on real traces.
#include <gtest/gtest.h>

#include "proto/naive/naive.hpp"
#include "sim/script.hpp"
#include "sim/sim_runtime.hpp"
#include "theory/commute.hpp"
#include "theory/fragments.hpp"

namespace snowkit::theory {
namespace {

/// A scripted naive-protocol read whose fragments are contiguous:
/// I ◦ Fx ◦ Fy ◦ E.
struct ScriptedRead {
  SimRuntime sim;
  HistoryRecorder rec{2};
  std::unique_ptr<ProtocolSystem> sys;
  TxnId txn{kInvalidTxn};

  ScriptedRead() {
    sys = build_naive(sim, rec, SystemConfig{2, 1, 0});
    sim.start();
    sim.hold_matching(script::any_of(
        {script::payload_is("simple-read"), script::payload_is("simple-read-resp")}));
    sys->client(0).submit(read_txn({0, 1}), [](const TxnResult&) {});
    sim.run_until_idle();
    const NodeId reader = sys->reader_node(0);
    script::release_one_and_drain(sim, script::to_node(0));       // Fx
    script::release_one_and_drain(sim, script::to_node(1));       // Fy
    script::release_one_and_drain(sim, script::between(0, reader));  // E begins
    script::release_one_and_drain(sim, script::between(1, reader));  // E completes
    txn = rec.snapshot().txns.at(0).id;
  }
};

TEST(Fragments, ScriptedReadScheduleIsPinned) {
  ScriptedRead s;
  EXPECT_EQ(trace_fingerprint(s.sim.trace()), 8734600319551940370ull);
}

TEST(Fragments, ExtractInvocation) {
  ScriptedRead s;
  const NodeId reader = s.sys->reader_node(0);
  auto i = extract_invocation_fragment(s.sim.trace(), s.txn, reader, "I");
  ASSERT_TRUE(i.has_value());
  EXPECT_EQ(i->node, reader);
  EXPECT_EQ(i->indices.size(), 3u);  // INV + 2 sends
  EXPECT_TRUE(i->has_input(s.sim.trace()));  // INV is an input
}

TEST(Fragments, ExtractServerFragments) {
  ScriptedRead s;
  auto fx = extract_server_fragment(s.sim.trace(), s.txn, 0, "Fx");
  auto fy = extract_server_fragment(s.sim.trace(), s.txn, 1, "Fy");
  ASSERT_TRUE(fx.has_value());
  ASSERT_TRUE(fy.has_value());
  EXPECT_EQ(fx->indices.size(), 2u);  // recv + send
  EXPECT_LT(fx->last(), fy->first());
}

TEST(Fragments, ExtractResponse) {
  ScriptedRead s;
  const NodeId reader = s.sys->reader_node(0);
  auto e = extract_response_fragment(s.sim.trace(), s.txn, reader, "E");
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->indices.size(), 3u);  // recv, recv, RESP
  EXPECT_EQ(s.sim.trace()[e->last()].kind, ActionKind::Respond);
}

TEST(Fragments, OrderString) {
  ScriptedRead s;
  const NodeId reader = s.sys->reader_node(0);
  auto i = *extract_invocation_fragment(s.sim.trace(), s.txn, reader, "I");
  auto fx = *extract_server_fragment(s.sim.trace(), s.txn, 0, "Fx");
  auto fy = *extract_server_fragment(s.sim.trace(), s.txn, 1, "Fy");
  auto e = *extract_response_fragment(s.sim.trace(), s.txn, reader, "E");
  EXPECT_EQ(fragment_order_string({e, fx, i, fy}), "I ◦ Fx ◦ Fy ◦ E");
}

TEST(Commute, SwapsAdjacentIndependentFragments) {
  ScriptedRead s;
  auto fx = *extract_server_fragment(s.sim.trace(), s.txn, 0, "Fx");
  auto fy = *extract_server_fragment(s.sim.trace(), s.txn, 1, "Fy");
  ASSERT_TRUE(adjacent(fx, fy));
  auto result = commute(s.sim.trace(), fx, fy);
  ASSERT_TRUE(result.ok) << result.why;
  auto fy2 = *extract_server_fragment(result.trace, s.txn, 1, "Fy");
  auto fx2 = *extract_server_fragment(result.trace, s.txn, 0, "Fx");
  EXPECT_LT(fy2.last(), fx2.first());
  std::string why;
  EXPECT_TRUE(well_formed(result.trace, &why)) << why;
}

TEST(Commute, RefusesSameAutomaton) {
  ScriptedRead s;
  auto fx = *extract_server_fragment(s.sim.trace(), s.txn, 0, "Fx");
  auto result = commute(s.sim.trace(), fx, fx);
  EXPECT_FALSE(result.ok);
}

TEST(Commute, RefusesCausallyDependentSwap) {
  ScriptedRead s;
  const NodeId reader = s.sys->reader_node(0);
  // I sends the request that Fx receives: swapping I and Fx would put a
  // recv before its send.
  auto i = *extract_invocation_fragment(s.sim.trace(), s.txn, reader, "I");
  auto fx = *extract_server_fragment(s.sim.trace(), s.txn, 0, "Fx");
  ASSERT_TRUE(adjacent(i, fx));
  auto result = commute(s.sim.trace(), i, fx);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.why.find("depends"), std::string::npos);
}

TEST(Commute, RefusesNonAdjacentFragments) {
  ScriptedRead s;
  auto fx = *extract_server_fragment(s.sim.trace(), s.txn, 0, "Fx");
  const NodeId reader = s.sys->reader_node(0);
  auto e = *extract_response_fragment(s.sim.trace(), s.txn, reader, "E");
  auto result = commute(s.sim.trace(), fx, e);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.why.find("adjacent"), std::string::npos);
}

TEST(Commute, PreservesPerAutomatonProjections) {
  ScriptedRead s;
  auto fx = *extract_server_fragment(s.sim.trace(), s.txn, 0, "Fx");
  auto fy = *extract_server_fragment(s.sim.trace(), s.txn, 1, "Fy");
  auto result = commute(s.sim.trace(), fx, fy);
  ASSERT_TRUE(result.ok);
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_TRUE(indistinguishable_at(s.sim.trace(), result.trace, n)) << "node " << n;
  }
}

TEST(Fragments, BlockedServerIsNotANonBlockingFragment) {
  // Build a trace where the server consumes another input between recv and
  // send: extraction must fail (it is not a non-blocking fragment).
  Trace t;
  t.append(Action{ActionKind::Recv, 0, /*node=*/0, /*peer=*/2, /*txn=*/1, "read-val", 1, 0});
  t.append(Action{ActionKind::Recv, 0, 0, 3, 9, "write-val", 2, 0});
  t.append(Action{ActionKind::Send, 0, 0, 2, 1, "read-val-resp", 3, 1});
  EXPECT_FALSE(extract_server_fragment(t, 1, 0, "F").has_value());
}

}  // namespace
}  // namespace snowkit::theory
