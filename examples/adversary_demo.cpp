// Adversary demo: watch the impossibility results happen, action by action.
//
// Prints (1) the naive one-round protocol fracturing under a two-event
// network reordering, with the full I/O-automata trace; (2) the Fig. 5
// Eiger counterexample timeline; (3) the alpha-chain summary for the
// three-client SNOW theorem.  Run with no arguments.
#include <cstdio>

#include "checker/serializability.hpp"
#include "core/system.hpp"
#include "sim/script.hpp"
#include "sim/sim_runtime.hpp"
#include "theory/alpha_chain.hpp"
#include "theory/eiger_fig5.hpp"

using namespace snowkit;

namespace {

void demo_fracture() {
  std::printf("--- demo 1: fracturing the naive one-round READ transaction ---------------\n");
  SimRuntime rt;
  HistoryRecorder recorder(2);
  auto system = build_protocol("naive", rt, recorder, SystemConfig{2, 1, 1});
  rt.start();
  rt.hold_matching(script::all_of({script::payload_is("simple-write"), script::to_node(1)}));

  system->client(0).submit(write_txn({{0, 11}, {1, 22}}), [](const TxnResult&) {});
  rt.run_until_idle();
  std::printf("W(x=11, y=22) invoked; the adversary delays the write to s_y.\n");

  system->client(0).submit(read_txn({0, 1}), [](const TxnResult& r) {
    std::printf("R returned (x=%lld, y=%lld) — a state NO serial execution produces.\n",
                static_cast<long long>(r.values[0].second),
                static_cast<long long>(r.values[1].second));
  });
  rt.run_until_idle();
  rt.hold_matching(nullptr);
  rt.release_all();
  rt.run_until_idle();

  std::printf("\nfull I/O-automata trace (s_x=n0, s_y=n1, reader=n2, writer=n3):\n%s",
              rt.trace().to_text().c_str());
  std::printf("checker: %s\n\n", find_fractured_read(recorder.snapshot()).c_str());
}

void demo_eiger() {
  std::printf("--- demo 2: the Fig. 5 Eiger counterexample --------------------------------\n");
  auto fig5 = theory::run_eiger_fig5();
  for (const auto& line : fig5.timeline) std::printf("  * %s\n", line.c_str());
  std::printf("verdict: %s\n\n",
              fig5.s_violated ? fig5.violation.c_str() : "unexpectedly serializable");
}

void demo_alpha_chain() {
  std::printf("--- demo 3: the three-client SNOW impossibility chain (Fig. 3) -------------\n");
  auto chain = theory::run_alpha_chain();
  for (const auto& step : chain.steps) {
    std::printf("  %-9s R1=%s R2=%s  %s\n", step.name.c_str(), step.r1_values.c_str(),
                step.r2_values.c_str(), step.order.c_str());
  }
  std::printf("verdict: %s\n", chain.violation.c_str());
}

}  // namespace

int main() {
  demo_fracture();
  demo_eiger();
  demo_alpha_chain();
  return 0;
}
