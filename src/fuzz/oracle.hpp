// The fuzzer's oracle: per-run checker battery + differential cross-protocol
// comparison.
//
// check_run() checks liveness, then feeds a completed CaseRun through the
// checker ladder (checker/ladder.hpp) — the Lemma-20 tag-order verifier, the
// trace-level non-blocking monitor, the fast strict-serializability
// detectors and the exact search checker (on small histories), as the
// protocol's traits make them applicable — and reports the first violation.  A violation is EXPECTED when the registry's ground
// truth already denies the audited claim (eiger, naive, broken-stale): those
// are the paper's counterexamples rediscovered, not bugs.
//
// differential_check() runs the SAME client program and schedule seed across
// every protocol of a consistency class and compares verdicts: a protocol
// that fails while a reference implementation of the class passes the
// identical workload is a differential divergence attributed to that
// protocol.
#pragma once

#include <string>
#include <vector>

#include "fuzz/fuzz_case.hpp"

namespace snowkit::fuzz {

struct OracleOptions {
  /// Run the exact serializability search only on histories at most this
  /// large (completed transactions); the fast detectors cover the rest.
  std::size_t max_search_txns{48};
  /// Search-state cap for the exact checker (exhaustion = inconclusive,
  /// never reported as a violation).
  std::size_t max_states{400'000};
};

struct OracleReport {
  bool violation{false};
  /// True when the registry truth (ProtocolTraits::claims_strict_serializability)
  /// already denies the audited claim — an expected divergence.
  bool expected{false};
  std::string checker;      ///< "liveness", "unwritten-value", "fractured-read",
                            ///< "stale-reread", "serializability", "tag-order",
                            ///< "non-blocking" — or "" when ok.
  std::string explanation;
};

/// Audits one run against the protocol's claimed AND advertised guarantees.
OracleReport check_run(const std::string& protocol, const CaseRun& run,
                       const OracleOptions& opts = {});

/// True if the protocol's claimed-or-advertised level is strict
/// serializability, i.e. the S checkers apply to it.
bool audits_strict_serializability(const std::string& protocol);

/// All registered protocols whose claimed-or-advertised level is strict
/// serializability (the differential class), sorted.
std::vector<std::string> strict_serializable_class();

struct DifferentialOutcome {
  std::string protocol;
  OracleReport report;
  std::size_t completed_reads{0};
  std::size_t distinct_read_observations{0};  ///< distinct (object, value) read pairs.
};

struct DifferentialReport {
  /// Some audited protocol violated while another passed the same program.
  bool divergence{false};
  /// A truthfully-claiming protocol violated: a genuine bug, never expected.
  bool unexpected{false};
  std::vector<DifferentialOutcome> outcomes;
  std::string details;  ///< human-readable per-protocol verdict lines.
};

/// Runs `base`'s client program + schedule seed across `protocols`
/// (base.protocol is ignored).  The base case must be compatible with every
/// protocol in the class — generate it with GenParams::single_reader when
/// the class contains an MWSR protocol.
DifferentialReport differential_check(const FuzzCase& base,
                                      const std::vector<std::string>& protocols,
                                      const OracleOptions& opts = {});

}  // namespace snowkit::fuzz
