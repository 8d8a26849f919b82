#include "audit/check.hpp"

#include "core/registry.hpp"

namespace snowkit::audit {

AuditVerdict check_merged(const MergedAudit& m, const CheckMergedOptions& opts) {
  const ProtocolTraits& traits = ProtocolRegistry::global().traits(m.protocol);
  AuditVerdict v;
  v.protocol = m.protocol;
  if (!m.history) {
    // Without the client process's snapshot there are no transactions to
    // check against — every checker in the ladder needs one.
    v.inconclusive = true;
    v.notes.push_back(
        "no history snapshot in the merged input (was the client process's final "
        "chunk included?); all checks skipped");
    return v;
  }

  LadderResult ladder = run_checker_ladder(traits, *m.history, m.trace, m.num_servers,
                                           LadderOptions{opts.max_search_txns, opts.max_states});
  v.checks_run = std::move(ladder.checks_run);
  v.snow = std::move(ladder.snow);
  v.inconclusive = ladder.search_exhausted;
  const bool lossy = m.total_drops > 0 || m.unmatched_recvs > 0;
  for (CheckFinding& f : ladder.findings) {
    if (lossy && f.checker == "non-blocking") {
      // The Send proving the server responded may simply have been
      // overwritten in its ring — a lossy capture cannot convict.
      v.inconclusive = true;
      v.notes.push_back("possible non-blocking violation demoted to inconclusive (" +
                        std::to_string(m.total_drops) + " drops, " +
                        std::to_string(m.unmatched_recvs) + " unmatched recvs): " +
                        f.explanation);
      continue;
    }
    v.findings.push_back(std::move(f));
  }
  v.notes.insert(v.notes.end(), ladder.notes.begin(), ladder.notes.end());
  v.violation = !v.findings.empty();
  return v;
}

}  // namespace snowkit::audit
