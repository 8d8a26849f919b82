// Social-timeline scenario: the workload that motivates the paper (§1).
//
// A TAO-style social app renders a user's page by reading many small objects
// (profile, friend list, latest posts) spread across shards — hundreds of
// reads per write.  Rendering must never show a "torn" state (e.g., a reply
// without the post it replies to), and page latency is the product metric.
//
// This example runs the same timeline workload on three protocols and
// reports what each costs and what each guarantees:
//   simple  — one round, but torn timelines possible (and detected);
//   algo-c  — one round, strictly serializable (the paper's SNW+1-round);
//   algo-b  — two rounds, strictly serializable, one-version responses.
#include <cstdio>

#include "checker/serializability.hpp"
#include "checker/tag_order.hpp"
#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "sim/sim_runtime.hpp"

using namespace snowkit;

namespace {

struct Outcome {
  LatencySummary read_latency;
  bool consistent{false};
  std::string note;
};

Outcome run_timeline(const std::string& kind, std::uint64_t seed) {
  // 8 shards: a post-chain lives on shards {post, reply} pairs; the page
  // read spans 4 shards; 100 page loads per reader vs 10 posts per writer.
  SimRuntime rt(make_uniform_delay(50'000, 2'000'000, seed));
  HistoryRecorder recorder(8);
  auto system = build_protocol(kind, rt, recorder, SystemConfig{8, 2, 2});
  WorkloadSpec spec;
  spec.ops_per_reader = 100;
  spec.ops_per_writer = 10;
  spec.read_span = 4;   // page render = multi-get over 4 shards
  spec.write_span = 2;  // post+reply written atomically
  spec.zipf_theta = 0.9;  // hot users
  spec.seed = seed;
  WorkloadDriver driver(rt, *system, spec);
  driver.start();
  rt.run_until_idle();

  Outcome out;
  const History h = recorder.snapshot();
  out.read_latency = summarize_latency(h, /*reads=*/true);
  if (provides_tags(kind)) {
    auto verdict = check_tag_order(h);
    out.consistent = verdict.ok;
    out.note = verdict.ok ? "verified via Lemma-20 tags" : verdict.explanation;
  } else {
    const auto fracture = find_fractured_read(h);
    out.consistent = fracture.empty();
    out.note = fracture.empty() ? "no torn page observed in this run (not guaranteed!)"
                                : "TORN PAGE: " + fracture;
  }
  return out;
}

}  // namespace

int main() {
  std::printf("social timeline: 8 shards, 2 page-render readers, 2 posting writers\n");
  std::printf("%-10s %12s %12s %8s  %s\n", "protocol", "p50(us)", "p99(us)", "pages", "consistency");
  int torn_runs = 0;
  for (const std::string kind : {"simple", "algo-c", "algo-b"}) {
    // Sweep seeds for the unguaranteed protocol to show torn pages are real.
    const int seeds = kind == "simple" ? 10 : 1;
    Outcome shown;
    for (int s = 1; s <= seeds; ++s) {
      shown = run_timeline(kind, static_cast<std::uint64_t>(s));
      if (!shown.consistent) {
        ++torn_runs;
        break;
      }
    }
    std::printf("%-10s %12.1f %12.1f %8llu  %s\n", kind.c_str(),
                static_cast<double>(shown.read_latency.p50_ns) / 1000.0,
                static_cast<double>(shown.read_latency.p99_ns) / 1000.0,
                static_cast<unsigned long long>(shown.read_latency.count), shown.note.c_str());
  }
  std::printf("\ntakeaway: algo-c renders pages at simple-read latency (one non-blocking\n"
              "round) while guaranteeing no torn timeline — the SNW+one-round point the\n"
              "paper shows is achievable; simple multi-gets tear under write concurrency.\n");
  return 0;
}
