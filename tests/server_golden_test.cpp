// Behaviour pin for the Pseudocode-6 server and the coordinator-system
// builder shared by algo-b, algo-c, adaptive and occ-reads.
//
// Each case runs a fixed-seed SimRuntime workload and pins three numbers:
// the trace fingerprint (every send/recv/invoke/respond action, in order,
// with its virtual time and payload name) plus the WireStats byte and
// message totals.  The constants were computed before the four server
// copies were merged into one; any change to which messages a handler
// sends, in what order, or with what encoded size moves at least one of
// them.  Replicated cases add a crash/restart of the coordinator's primary
// under the random schedule adversary, so the replication wiring
// (consume/defer_client, log appends, the deduplicated List push) is pinned
// too.
//
// The registry checks at the end pin the builder's option validation.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "checker/tag_order.hpp"
#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "metrics/wire_stats.hpp"
#include "sim/schedule.hpp"
#include "sim/sim_runtime.hpp"

namespace snowkit {
namespace {

struct GoldenCase {
  std::string name;
  std::string protocol;
  BuildOptions opts;
  bool crash{false};  ///< replicas=2 + crash/restart of node 0 under the adversary.
  std::uint64_t fingerprint{0};
  std::uint64_t bytes{0};
  std::uint64_t messages{0};
};

struct GoldenRun {
  std::uint64_t fingerprint{0};
  std::uint64_t bytes{0};
  std::uint64_t messages{0};
  bool done{false};
  bool crashed{false};
  TagOrderResult tags;
};

GoldenRun run_golden(const GoldenCase& c) {
  SimRuntime sim(make_uniform_delay(500, 20'000, 11));
  WireStats wire;
  sim.set_observer(&wire);
  HistoryRecorder rec(6);
  SystemConfig cfg{6, 3, 2};
  cfg.num_servers = 3;  // two objects per server: sharded handlers
  auto sys = build_protocol(c.protocol, sim, rec, cfg, c.opts);

  WorkloadSpec spec;
  spec.ops_per_reader = 30;
  spec.ops_per_writer = 20;
  spec.read_span = 3;
  spec.write_span = 2;
  spec.zipf_theta = 0.5;
  spec.seed = 5;
  WorkloadDriver driver(sim, *sys, spec);
  driver.start();
  if (c.crash) {
    RandomSchedulePolicy inner(23, 0.3, 0.3);
    CrashRestartPolicy policy(inner, /*victim=*/0, /*crash_at=*/60, /*restart_at=*/200);
    run_scheduled(sim, policy);
  } else {
    sim.run_until_idle();
  }

  GoldenRun out;
  out.fingerprint = trace_fingerprint(sim.trace());
  out.bytes = wire.bytes();
  out.messages = wire.messages();
  out.done = driver.done();
  out.crashed = sim.trace().find([](const Action& a) { return a.kind == ActionKind::Crash; })
                    .has_value();
  out.tags = check_tag_order(rec.snapshot());
  return out;
}

BuildOptions replicated() {
  BuildOptions o;
  o.set("replicas", 2);
  return o;
}

BuildOptions with(const std::string& key, const std::string& value) {
  BuildOptions o;
  o.set(key, value);
  return o;
}

class ServerGolden : public testing::TestWithParam<GoldenCase> {};

TEST_P(ServerGolden, TraceAndWireTotalsArePinned) {
  const GoldenCase& c = GetParam();
  const GoldenRun r = run_golden(c);
  ASSERT_TRUE(r.done) << c.name << ": workload did not complete";
  ASSERT_TRUE(r.tags.ok) << c.name << ": " << r.tags.explanation;
  ASSERT_EQ(r.crashed, c.crash) << c.name;
  EXPECT_EQ(r.fingerprint, c.fingerprint) << c.name;
  EXPECT_EQ(r.bytes, c.bytes) << c.name;
  EXPECT_EQ(r.messages, c.messages) << c.name;
}

std::vector<GoldenCase> golden_cases() {
  return {
      {"algo_b", "algo-b", {}, false, 4942753835419980455ull, 8367, 1170},
      {"algo_b_keep_all", "algo-b", with("gc_versions", "false"), false,
       3663571121835565165ull, 7689, 1050},
      {"algo_b_crash", "algo-b", replicated(), true, 14194938596773543763ull, 19694, 1667},
      {"algo_c", "algo-c", {}, false, 17381692404554326617ull, 10895, 1170},
      {"algo_c_keep_all", "algo-c", with("gc_versions", "false"), false,
       4534953353085325870ull, 18719, 1050},
      {"algo_c_crash", "algo-c", replicated(), true, 12340874317410677664ull, 21727, 1673},
      {"adaptive", "adaptive", {}, false, 9956786984108163812ull, 9258, 1024},
      {"adaptive_no_cache", "adaptive", with("cache", "false"), false,
       3785286944018992275ull, 9308, 1034},
      {"adaptive_crash", "adaptive", replicated(), true, 8490711620098469447ull, 19496, 1460},
      {"occ", "occ-reads", {}, false, 6159395236281633360ull, 16222, 2226},
      {"occ_gc", "occ-reads", with("gc_versions", "true"), false,
       7090836447564738853ull, 16244, 2258},
      {"occ_coordinator_2", "occ-reads", with("coordinator", "2"), false,
       4602182814936118964ull, 16222, 2226},
  };
}

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

INSTANTIATE_TEST_SUITE_P(Protocols, ServerGolden, testing::ValuesIn(golden_cases()),
                         [](const auto& info) { return info.param.name; });

// --- builder validation through the registry --------------------------------

void expect_build_throws(const std::string& protocol, const BuildOptions& opts) {
  SimRuntime sim;
  HistoryRecorder rec(4);
  SystemConfig cfg{4, 1, 1};
  cfg.num_servers = 2;
  EXPECT_THROW(build_protocol(protocol, sim, rec, cfg, opts), std::invalid_argument)
      << protocol;
}

TEST(CoordinatorBuilder, CoordinatorOutOfRangeThrows) {
  for (const char* protocol :
       {"algo-b", "algo-c", "adaptive", "occ-reads", "broken-lostack", "broken-adaptive"}) {
    expect_build_throws(protocol, with("coordinator", "2"));
  }
}

TEST(CoordinatorBuilder, ThreeReplicasThrow) {
  for (const char* protocol : {"algo-b", "algo-c", "adaptive", "broken-adaptive"}) {
    expect_build_throws(protocol, with("replicas", "3"));
  }
}

TEST(CoordinatorBuilder, LastShardIsAValidCoordinator) {
  for (const char* protocol : {"algo-b", "algo-c", "adaptive", "occ-reads"}) {
    SimRuntime sim;
    HistoryRecorder rec(4);
    SystemConfig cfg{4, 1, 1};
    cfg.num_servers = 2;
    EXPECT_NO_THROW(build_protocol(protocol, sim, rec, cfg, with("coordinator", "1")))
        << protocol;
  }
}

}  // namespace
}  // namespace snowkit
