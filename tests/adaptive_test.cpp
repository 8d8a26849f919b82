// Adaptive meta-protocol (ISSUE 10): per-object B<->C switching, the
// watermark-proved client cache and batched read legs — basic behaviour.
// The differential-fuzz battery lives in adaptive_fuzz_test.cpp and the
// cache-invariant property suite in adaptive_cache_property_test.cpp.
#include <gtest/gtest.h>

#include <stdexcept>

#include "checker/snow_monitor.hpp"
#include "checker/tag_order.hpp"
#include "core/registry.hpp"
#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "proto/adaptive/adaptive.hpp"
#include "sim/sim_runtime.hpp"

namespace snowkit {
namespace {

struct Rig {
  SimRuntime sim;
  HistoryRecorder rec;
  std::unique_ptr<ProtocolSystem> sys;
  AdaptiveSystem* adaptive{nullptr};

  explicit Rig(std::size_t k, std::size_t readers = 1, std::size_t writers = 1,
               std::uint64_t seed = 1, AdaptiveOptions opts = {})
      : sim(make_uniform_delay(10, 5000, seed)), rec(k) {
    sys = build_adaptive(sim, rec, SystemConfig{k, readers, writers}, opts);
    adaptive = dynamic_cast<AdaptiveSystem*>(sys.get());
  }
};

TxnResult read_now(Rig& rig, std::size_t reader, std::vector<ObjectId> objs) {
  TxnResult result;
  rig.sys->client(reader).submit(read_txn(std::move(objs)),
                                 [&](const TxnResult& r) { result = r; });
  rig.sim.run_until_idle();
  return result;
}

void write_now(Rig& rig, std::size_t writer, std::vector<std::pair<ObjectId, Value>> writes) {
  rig.sys->client(writer).submit(write_txn(std::move(writes)), [](const TxnResult&) {});
  rig.sim.run_until_idle();
}

TEST(Adaptive, WriteThenReadRoundTrip) {
  Rig rig(3);
  write_now(rig, 0, {{0, 1}, {1, 2}, {2, 3}});
  const TxnResult result = read_now(rig, 0, {0, 2});
  ASSERT_EQ(result.values.size(), 2u);
  EXPECT_EQ(result.values[0].second, 1);
  EXPECT_EQ(result.values[1].second, 3);
  const auto verdict = check_tag_order(rig.rec.snapshot());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(Adaptive, WriteHeavyObjectSwitchesToPrefetchMode) {
  // Default thresholds: B -> C once an object's EWMA write credit reaches 4.
  // Sim delays are microseconds against a 2s decay constant, so every
  // write adds a nearly-full credit.  The cache is off so the C-mode object
  // must resolve from the prefetch, not from a hit.
  AdaptiveOptions no_cache;
  no_cache.cache_reads = false;
  Rig rig(2, 1, 1, /*seed=*/1, no_cache);
  ASSERT_NE(rig.adaptive, nullptr);
  for (Value v = 1; v <= 6; ++v) write_now(rig, 0, {{0, v * 10}});
  const AdaptiveStats after_writes = rig.adaptive->stats();
  EXPECT_GE(after_writes.switches, 1u) << "six back-to-back writes never flipped the mode";

  // The next READ learns the mode table from its tag array; the one after —
  // spanning only the C-mode object — prefetches Algorithm-C style and
  // completes in one round (object 1 stays B-mode and would cost a round 2).
  (void)read_now(rig, 0, {0, 1});
  const TxnResult r2 = read_now(rig, 0, {0});
  EXPECT_EQ(r2.values[0].second, 60);
  const AdaptiveStats s = rig.adaptive->stats();
  EXPECT_GE(s.prefetch_resolved, 1u) << "C-mode object was never resolved from a prefetch";
  EXPECT_GE(s.one_round_reads, 1u);
  const auto verdict = check_tag_order(rig.rec.snapshot());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(Adaptive, CacheHitCompletesWithoutASecondRound) {
  Rig rig(2);
  ASSERT_NE(rig.adaptive, nullptr);
  write_now(rig, 0, {{0, 7}, {1, 8}});
  (void)read_now(rig, 0, {0, 1});  // populates the cache (two misses)
  const TxnResult r2 = read_now(rig, 0, {0, 1});
  EXPECT_EQ(r2.values[0].second, 7);
  EXPECT_EQ(r2.values[1].second, 8);
  const AdaptiveStats s = rig.adaptive->stats();
  EXPECT_EQ(s.cache_hits, 2u);
  EXPECT_EQ(s.cache_misses, 2u);
  EXPECT_GE(s.one_round_reads, 1u) << "a fully cache-served READ still paid round 2";
}

TEST(Adaptive, WriteInvalidatesExactlyTheOverwrittenObject) {
  Rig rig(2);
  ASSERT_NE(rig.adaptive, nullptr);
  write_now(rig, 0, {{0, 1}, {1, 2}});
  (void)read_now(rig, 0, {0, 1});
  write_now(rig, 0, {{0, 99}});  // supersedes the cached key for object 0 only
  const TxnResult r = read_now(rig, 0, {0, 1});
  EXPECT_EQ(r.values[0].second, 99) << "cache served a superseded version";
  EXPECT_EQ(r.values[1].second, 2);
  const AdaptiveStats s = rig.adaptive->stats();
  EXPECT_EQ(s.cache_hits, 1u);    // object 1 still proves fresh
  EXPECT_EQ(s.cache_misses, 3u);  // first read (2) + re-fetch of object 0
  const auto verdict = check_tag_order(rig.rec.snapshot());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(Adaptive, BrokenCacheServesTheStaleVersion) {
  // The fault stub the fuzz battery must convict: with the freshness proof
  // removed, a cached entry outlives the write that superseded it.
  AdaptiveOptions opts;
  opts.broken_cache = true;
  Rig rig(2, 1, 1, /*seed=*/1, opts);
  write_now(rig, 0, {{0, 1}});
  (void)read_now(rig, 0, {0});
  write_now(rig, 0, {{0, 2}});
  const TxnResult r = read_now(rig, 0, {0});
  EXPECT_EQ(r.values[0].second, 1) << "broken_cache unexpectedly refetched — the planted "
                                      "bug is gone and the vacuity guard is meaningless";
  const auto verdict = check_tag_order(rig.rec.snapshot());
  EXPECT_FALSE(verdict.ok) << "tag-order checker missed the stale cached read";
}

TEST(Adaptive, StrictSerializabilityUnderClosedLoopWorkload) {
  for (std::uint64_t seed : {21ull, 22ull, 23ull, 24ull}) {
    Rig rig(4, 3, 3, seed);
    WorkloadSpec spec;
    spec.ops_per_reader = 50;
    spec.ops_per_writer = 25;
    spec.read_span = 2;
    spec.write_span = 2;
    spec.seed = seed;
    WorkloadDriver driver(rig.sim, *rig.sys, spec);
    driver.start();
    rig.sim.run_until_idle();
    EXPECT_TRUE(driver.done());
    const auto verdict = check_tag_order(rig.rec.snapshot());
    EXPECT_TRUE(verdict.ok) << "seed " << seed << ": " << verdict.explanation;
    const auto report = analyze_snow_trace(rig.sim.trace(), 4, rig.rec.snapshot());
    EXPECT_TRUE(report.satisfies_n())
        << (report.violations.empty() ? "" : report.violations[0]);
  }
}

TEST(Adaptive, RegistryBuildsItWithZeroProtocolSpecificCode) {
  const auto& traits = ProtocolRegistry::global().traits("adaptive");
  EXPECT_TRUE(traits.claims_strict_serializability);
  EXPECT_TRUE(traits.advertises_strict_serializability);
  EXPECT_TRUE(traits.provides_tags);
  EXPECT_TRUE(traits.supports_replication);
  EXPECT_EQ(traits.version_bound, "<=|W|+1");

  SimRuntime sim;
  HistoryRecorder rec(2);
  BuildOptions opts;
  opts.set("switch_up", "6.0");
  opts.set("switch_down", "2.0");
  opts.set("ewma_tau_ms", 100);
  auto sys = ProtocolRegistry::global().build("adaptive", sim, rec, SystemConfig{2, 1, 1}, opts);
  EXPECT_EQ(sys->name(), "adaptive");
  EXPECT_NE(dynamic_cast<AdaptiveSystem*>(sys.get()), nullptr);
}

TEST(Adaptive, OptionsValidateFailFast) {
  SimRuntime sim;
  HistoryRecorder rec(2);
  AdaptiveOptions opts;
  opts.switch_up = 1.0;
  opts.switch_down = 1.0;  // no hysteresis band
  EXPECT_THROW(build_adaptive(sim, rec, SystemConfig{2, 1, 1}, opts), std::invalid_argument);
  opts = {};
  opts.ewma_tau_ns = 0;
  EXPECT_THROW(build_adaptive(sim, rec, SystemConfig{2, 1, 1}, opts), std::invalid_argument);
  opts = {};
  opts.replicas = 3;
  EXPECT_THROW(build_adaptive(sim, rec, SystemConfig{2, 1, 1}, opts), std::invalid_argument);
}

}  // namespace
}  // namespace snowkit
