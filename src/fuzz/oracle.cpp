#include "fuzz/oracle.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "checker/ladder.hpp"
#include "core/registry.hpp"

namespace snowkit::fuzz {

bool audits_strict_serializability(const std::string& protocol) {
  const ProtocolTraits& t = ProtocolRegistry::global().traits(protocol);
  return t.claims_strict_serializability || t.advertises_strict_serializability;
}

std::vector<std::string> strict_serializable_class() {
  std::vector<std::string> out;
  for (const std::string& name : ProtocolRegistry::global().names()) {
    if (audits_strict_serializability(name)) out.push_back(name);
  }
  return out;
}

OracleReport check_run(const std::string& protocol, const CaseRun& run,
                       const OracleOptions& opts) {
  OracleReport r;
  if (!run.completed) {
    r.violation = true;
    r.checker = "liveness";
    r.explanation = "client program did not complete (deadlock or lost completion)";
    return r;
  }
  const LadderResult ladder =
      run_checker_ladder(ProtocolRegistry::global().traits(protocol), run.history, run.trace,
                         run.num_servers,
                         LadderOptions{opts.max_search_txns, opts.max_states, /*first_only=*/true});
  if (ladder.findings.empty()) return r;
  const CheckFinding& f = ladder.findings.front();
  r.violation = true;
  r.expected = f.expected;
  r.checker = f.checker;
  r.explanation = f.explanation;
  return r;
}

DifferentialReport differential_check(const FuzzCase& base,
                                      const std::vector<std::string>& protocols,
                                      const OracleOptions& opts) {
  DifferentialReport report;
  std::ostringstream details;
  bool any_pass = false;
  for (const std::string& name : protocols) {
    FuzzCase c = base;
    c.protocol = name;
    const CaseRun run = run_case(c);
    DifferentialOutcome out;
    out.protocol = name;
    out.report = check_run(name, run, opts);
    out.completed_reads = run.history.completed_reads();
    std::set<std::pair<ObjectId, Value>> observed;
    for (const TxnRecord& t : run.history.txns) {
      if (!t.complete || !t.is_read) continue;
      for (const auto& pair : t.reads) observed.insert(pair);
    }
    out.distinct_read_observations = observed.size();
    details << "  " << name << ": "
            << (out.report.violation
                    ? (out.report.expected ? "EXPECTED divergence (" : "VIOLATION (") +
                          out.report.checker + "): " + out.report.explanation
                    : "ok")
            << " [reads=" << out.completed_reads
            << " distinct-observations=" << out.distinct_read_observations << "]\n";
    if (out.report.violation) {
      report.divergence = true;  // provisional; requires a passing peer below
      if (!out.report.expected) report.unexpected = true;
    } else {
      any_pass = true;
    }
    report.outcomes.push_back(std::move(out));
  }
  report.divergence = report.divergence && any_pass;
  report.details = details.str();
  return report;
}

}  // namespace snowkit::fuzz
