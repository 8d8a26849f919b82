// Property suite for the adaptive client cache invariant (ISSUE 10):
//
//   1. a cache hit is served ONLY while the watermark-anchor proof holds —
//      the cached key must equal latest[obj] in the READ's fresh tag array;
//   2. no cache entry survives a TakeoverNotice epoch bump;
//   3. the hit/miss/invalidation counters reconcile EXACTLY with the issued
//      read rounds: every object of every completed READ is either a hit or
//      a miss, and every miss is resolved by a C-mode prefetch or a round-2
//      batch fetch — nothing is double-counted, nothing leaks.
#include <gtest/gtest.h>

#include <numeric>

#include "checker/tag_order.hpp"
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

/// Sum of read spans over completed READ transactions — the number of
/// per-object resolutions the readers performed (failure-free runs have
/// exactly one tag-array resolution per READ).
std::uint64_t total_read_objects(const History& h) {
  std::uint64_t n = 0;
  for (const TxnRecord& t : h.txns) {
    if (t.is_read && t.complete) n += t.reads.size();
  }
  return n;
}

TEST(AdaptiveCacheProperty, CountersReconcileExactlyWithIssuedReadRounds) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rig rig(3, 2, 2, seed);
    ASSERT_NE(rig.adaptive, nullptr);
    WorkloadSpec spec;
    spec.ops_per_reader = 40;
    spec.ops_per_writer = 20;
    spec.read_span = 2;
    spec.write_span = 2;
    spec.seed = seed;
    WorkloadDriver driver(rig.sim, *rig.sys, spec);
    driver.start();
    rig.sim.run_until_idle();
    ASSERT_TRUE(driver.done()) << "seed " << seed;

    const History h = rig.rec.snapshot();
    const AdaptiveStats s = rig.adaptive->stats();
    EXPECT_EQ(s.reads, h.completed_reads()) << "seed " << seed;
    // Exact reconciliation, side 1: every object of every completed READ
    // resolved through the cache consult exactly once.
    EXPECT_EQ(s.cache_hits + s.cache_misses, total_read_objects(h)) << "seed " << seed;
    // Side 2: every miss was then resolved by exactly one fetch path.
    EXPECT_EQ(s.cache_misses, s.prefetch_resolved + s.round2_objects) << "seed " << seed;
    // Failure-free runs never invalidate.
    EXPECT_EQ(s.cache_invalidations, 0u) << "seed " << seed;
    // The invariant's teeth: hits never produced a stale read.
    const auto verdict = check_tag_order(h);
    EXPECT_TRUE(verdict.ok) << "seed " << seed << ": " << verdict.explanation;
  }
}

TEST(AdaptiveCacheProperty, HitServedOnlyWhileTheAnchorProofHolds) {
  Rig rig(2);
  ASSERT_NE(rig.adaptive, nullptr);
  write_now(rig, 0, {{0, 1}, {1, 2}});
  (void)read_now(rig, 0, {0, 1});
  ASSERT_EQ(rig.adaptive->stats().cache_hits, 0u);

  // Proof holds for both objects: both hit.
  (void)read_now(rig, 0, {0, 1});
  EXPECT_EQ(rig.adaptive->stats().cache_hits, 2u);

  // A write to object 0 moves latest[0]; its cached key no longer anchors.
  write_now(rig, 0, {{0, 3}});
  const TxnResult r = read_now(rig, 0, {0, 1});
  EXPECT_EQ(r.values[0].second, 3);
  EXPECT_EQ(r.values[1].second, 2);
  const AdaptiveStats s = rig.adaptive->stats();
  EXPECT_EQ(s.cache_hits, 3u);    // only object 1 hit in the third read
  EXPECT_EQ(s.cache_misses, 3u);  // first read (2) + object 0 re-proof failure
}

TEST(AdaptiveCacheProperty, CacheNeverSurvivesATakeoverEpochBump) {
  AdaptiveOptions opts;
  opts.replicas = 2;
  Rig rig(2, 1, 1, /*seed=*/1, opts);
  ASSERT_NE(rig.adaptive, nullptr);
  rig.sim.start();
  write_now(rig, 0, {{0, 5}, {1, 6}});
  (void)read_now(rig, 0, {0, 1});  // populates both cache entries
  (void)read_now(rig, 0, {0, 1});
  ASSERT_EQ(rig.adaptive->stats().cache_hits, 2u);
  ASSERT_EQ(rig.adaptive->stats().cache_invalidations, 0u);

  // Kill the shard-0 primary (the coordinator).  The backup takes over and
  // its TakeoverNotice epoch bump must wipe the whole cache.
  ASSERT_TRUE(rig.sim.can_crash(0));
  rig.sim.crash(0);
  rig.sim.run_until_idle();
  const AdaptiveStats after = rig.adaptive->stats();
  EXPECT_EQ(after.cache_invalidations, 2u)
      << "cache entries survived the takeover epoch bump";

  // Post-failover READ rebuilds from the new lineage: all misses, correct
  // values (the backup replicated every acked write).
  const TxnResult r = read_now(rig, 0, {0, 1});
  EXPECT_EQ(r.values[0].second, 5);
  EXPECT_EQ(r.values[1].second, 6);
  const AdaptiveStats s = rig.adaptive->stats();
  EXPECT_EQ(s.cache_hits, 2u) << "a wiped cache still produced a hit";
  const auto verdict = check_tag_order(rig.rec.snapshot());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(AdaptiveCacheProperty, ReconciliationAlsoHoldsWithTheCacheDisabled) {
  // cache=off is the degenerate corner: every object is a miss, and the
  // counters must still balance (guards against hits being counted
  // somewhere the cache_reads gate doesn't cover).
  AdaptiveOptions opts;
  opts.cache_reads = false;
  Rig rig(3, 2, 2, /*seed=*/7, opts);
  ASSERT_NE(rig.adaptive, nullptr);
  WorkloadSpec spec;
  spec.ops_per_reader = 30;
  spec.ops_per_writer = 15;
  spec.read_span = 2;
  spec.seed = 7;
  WorkloadDriver driver(rig.sim, *rig.sys, spec);
  driver.start();
  rig.sim.run_until_idle();
  ASSERT_TRUE(driver.done());
  const AdaptiveStats s = rig.adaptive->stats();
  EXPECT_EQ(s.cache_hits, 0u);
  EXPECT_EQ(s.cache_misses, total_read_objects(rig.rec.snapshot()));
  EXPECT_EQ(s.cache_misses, s.prefetch_resolved + s.round2_objects);
}

}  // namespace
}  // namespace snowkit
