#include "theory/eiger_fig5.hpp"

#include "checker/serializability.hpp"
#include "common/assert.hpp"
#include "proto/eiger/eiger.hpp"
#include "sim/script.hpp"
#include "sim/sim_runtime.hpp"

namespace snowkit::theory {

Fig5Result run_eiger_fig5() {
  Fig5Result out;
  SimRuntime sim;
  HistoryRecorder rec(2);
  auto sys = build_eiger(sim, rec, SystemConfig{2, /*readers=*/1, /*writers=*/2});
  sim.start();
  const ObjectId A = 0;
  const ObjectId B = 1;

  sys->client(0).submit(write_txn({{B, 1}}), [](const TxnResult&) {});
  sim.run_until_idle();
  out.timeline.push_back("w1 = CW1 writes B=1; S_B commits it at ts 1; w1 completes");

  sim.hold_matching(script::all_of({script::payload_is("eiger-read"), script::to_node(A)}));
  TxnResult r_result;
  bool r_done = false;
  sys->client(0).submit(read_txn({A, B}), [&](const TxnResult& r) {
    r_result = r;
    r_done = true;
  });
  sim.run_until_idle();
  SNOW_CHECK(!r_done);
  out.timeline.push_back("R = CR reads {A,B}; rB reaches S_B first: returns w1 with interval [1,2];"
                         " rA is delayed by the network");

  bool w2_done = false;
  sys->client(0).submit(write_txn({{B, 2}}), [&](const TxnResult&) { w2_done = true; });
  sim.run_until_idle();
  SNOW_CHECK(w2_done);
  out.timeline.push_back("w2 = CW1 writes B=2 (arrives at S_B after rB); w2 completes");

  sys->client(1).submit(write_txn({{A, 3}}), [](const TxnResult&) {});
  sim.run_until_idle();
  out.timeline.push_back("w3 = CW2 writes A=3, invoked AFTER w2's response; CW2 has exchanged no "
                         "messages with CW1 or S_B, so S_A commits w3 at Lamport ts 1");

  sim.hold_matching(nullptr);
  sim.release_all();
  sim.run_until_idle();
  SNOW_CHECK(r_done);
  out.timeline.push_back("rA now reaches S_A: returns w3 with interval [1,2]; the intervals "
                         "overlap, so Eiger ACCEPTS {A=w3, B=w1} in one round");

  for (const auto& [obj, v] : r_result.values) {
    if (obj == A) out.read_a = v;
    if (obj == B) out.read_b = v;
  }
  out.history = rec.snapshot();
  for (const auto& t : out.history.txns) {
    if (t.is_read) out.read_rounds = t.rounds;
  }
  auto verdict = check_strict_serializability(out.history);
  out.s_violated = !verdict.ok;
  out.violation = verdict.explanation;
  out.timeline.push_back("but w3 is real-time-after w2: any serialization with R after w3 must "
                         "show B=2 — strict serializability is violated");
  return out;
}

}  // namespace snowkit::theory
