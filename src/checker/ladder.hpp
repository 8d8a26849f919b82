// The checker ladder: every history/trace check a protocol's traits make
// applicable, in one fixed order, shared by the fuzzer's oracle
// (fuzz/oracle.hpp, first violation of a simulated run) and the offline
// audit (audit/check.hpp, every finding of a captured run).
//
// Order:
//   1. tag-order      Lemma-20 verifier, when the protocol assigns tags;
//   2. non-blocking   SNOW N monitor over the trace, when the protocol claims N;
//   3. the strict-serializability family, when the protocol claims OR
//      advertises strict serializability: the fast necessary-condition
//      detectors (unwritten-value, fractured-read, stale-reread), then the
//      exact search on histories of at most max_search_txns transactions.
//
// A finding is `expected` when it is an s-family violation on a protocol
// whose registry truth denies the claim (eiger, naive, the fault stubs):
// the paper's counterexamples rediscovered, not snowkit bugs.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "checker/snow_monitor.hpp"
#include "history/history.hpp"
#include "sim/trace.hpp"

namespace snowkit {

struct ProtocolTraits;

struct LadderOptions {
  /// Exact serializability search only at or below this completed-txn count.
  std::size_t max_search_txns{48};
  /// Search-state cap (exhaustion is inconclusive, never a violation).
  std::size_t max_states{400'000};
  /// Stop at the first finding instead of collecting them all.
  bool first_only{false};
};

struct CheckFinding {
  std::string checker;  ///< "tag-order", "non-blocking", "unwritten-value", ...
  std::string explanation;
  bool expected{false};  ///< s-family violation on a non-truthful claimer.
};

struct LadderResult {
  std::vector<CheckFinding> findings;
  std::vector<std::string> checks_run;  ///< rungs reached, in order.
  /// Rungs skipped or inconclusive (history too large, state cap hit).
  std::vector<std::string> notes;
  bool search_exhausted{false};  ///< the exact search hit its state cap.
  SnowTraceReport snow;          ///< populated when the non-blocking rung ran.
};

LadderResult run_checker_ladder(const ProtocolTraits& traits, const History& h,
                                const Trace& trace, std::size_t num_servers,
                                const LadderOptions& opts = {});

}  // namespace snowkit
