// Stateless offline re-check of a merged audit run.
//
// Runs the checker ladder the fuzzer's oracle runs (checker/ladder.hpp) on
// captured production runs: tag-order when the protocol assigns Lemma-20
// tags, the SNOW non-blocking monitor over the merged trace, and the
// strict-serializability family (fast necessary-condition detectors always,
// the exact search when the history is small enough) for every protocol
// whose claimed OR advertised level is strict serializability.  Differences
// from the oracle, forced by the capture medium:
//
//   * All findings are collected, not just the first — an operator reading
//     an audit report wants the full picture.
//   * Drop-awareness: ring overwrites can delete the very Send that would
//     prove a server responded, so trace-based (non-blocking) violations on
//     a lossy capture are demoted to `inconclusive` instead of reported as
//     facts.  History-based checks are unaffected — the History snapshot
//     comes from the client recorder, not from the rings.
//
// The `expected` flag mirrors the registry's adjudicated truth: an s-family
// violation on a protocol that advertises but does not truthfully claim
// strict serializability (eiger, broken-stale) is the paper's counterexample
// rediscovered, not a snowkit bug — but it is still reported (and still
// fails `snowkit_audit check`), because an audit's job is to flag it.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "audit/merge.hpp"
#include "checker/ladder.hpp"

namespace snowkit::audit {

struct CheckMergedOptions {
  /// Exact serializability search only below this completed-txn count.
  std::size_t max_search_txns{48};
  std::size_t max_states{400'000};
};

using snowkit::CheckFinding;

struct AuditVerdict {
  std::string protocol;
  bool violation{false};     ///< any finding fired.
  bool inconclusive{false};  ///< a check was skipped or demoted (drops, size).
  std::vector<CheckFinding> findings;
  std::vector<std::string> notes;  ///< what was skipped/demoted and why.
  std::vector<std::string> checks_run;
  SnowTraceReport snow;  ///< populated when the SNOW monitor ran.
};

/// Throws std::invalid_argument when m.protocol is not a registered
/// protocol (merged files are self-describing; a typo'd or foreign file
/// should fail loudly).
AuditVerdict check_merged(const MergedAudit& m, const CheckMergedOptions& opts = {});

}  // namespace snowkit::audit
