#include "checker/ladder.hpp"

#include <utility>

#include "checker/serializability.hpp"
#include "checker/tag_order.hpp"
#include "core/registry.hpp"

namespace snowkit {

LadderResult run_checker_ladder(const ProtocolTraits& traits, const History& h,
                                const Trace& trace, std::size_t num_servers,
                                const LadderOptions& opts) {
  LadderResult r;
  // Records a finding; true when the ladder should stop here.
  const auto found = [&](std::string checker, std::string explanation, bool s_family) {
    r.findings.push_back(CheckFinding{std::move(checker), std::move(explanation),
                                      s_family && !traits.claims_strict_serializability});
    return opts.first_only;
  };

  if (traits.provides_tags) {
    r.checks_run.push_back("tag-order");
    const TagOrderResult tags = check_tag_order(h);
    if (!tags.ok && found("tag-order", tags.explanation, /*s_family=*/false)) return r;
  }

  if (traits.snow_n) {
    r.checks_run.push_back("non-blocking");
    r.snow = analyze_snow_trace(trace, num_servers, h);
    if (!r.snow.satisfies_n()) {
      std::string why = r.snow.violations.empty() ? "server blocked during a read"
                                                  : r.snow.violations.front();
      if (found("non-blocking", std::move(why), /*s_family=*/false)) return r;
    }
  }

  if (!traits.claims_strict_serializability && !traits.advertises_strict_serializability) {
    return r;
  }
  r.checks_run.push_back("s-family-detectors");
  for (const auto& [checker, detect] :
       {std::pair{"unwritten-value", &find_unwritten_value},
        std::pair{"fractured-read", &find_fractured_read},
        std::pair{"stale-reread", &find_stale_reread}}) {
    std::string why = detect(h);
    if (!why.empty() && found(checker, std::move(why), /*s_family=*/true)) return r;
  }
  const std::size_t completed = h.completed_reads() + h.completed_writes();
  if (completed > opts.max_search_txns) {
    r.notes.push_back("history too large for the exact search (" + std::to_string(completed) +
                      " > " + std::to_string(opts.max_search_txns) +
                      " completed txns); fast detectors only");
    return r;
  }
  r.checks_run.push_back("serializability-search");
  const CheckResult exact = check_strict_serializability(h, CheckOptions{opts.max_states});
  if (exact.exhausted) {
    r.search_exhausted = true;
    r.notes.push_back("serializability search hit the state cap (inconclusive)");
  } else if (!exact.ok) {
    found("serializability", exact.explanation, /*s_family=*/true);
  }
  return r;
}

}  // namespace snowkit
