// Adaptive meta-protocol (ROADMAP item 5): per-object B<->C switching,
// watermark-proved client version caches, and cross-object read batching.
//
// The paper's cost matrix says Algorithm B pays 2 rounds / 1 version per
// READ and Algorithm C pays 1 round / <=|W|+1 versions; BENCH_skew.json
// shows which one wins flips with the per-object write rate.  The adaptive
// layer picks the point per object at runtime WITHOUT touching the
// serialization rule:
//
//  * Every READ serializes exactly like Algorithm B — the coordinator cut
//    t_r = newest List position, each object served at latest[obj].  The
//    per-object mode only changes how the value for latest[obj] reaches the
//    reader, so adaptive histories are a subset of algo-b-reachable
//    histories by construction, under ANY mode mix or switch interleaving.
//  * B-mode (default, write-cold objects): fetch on demand in round 2, all
//    same-server objects packed into one ReadValBatchReq frame.
//  * C-mode (write-hot objects): prefetch the server's bounded version list
//    (ReadValsBatchReq) in parallel with get-tag-arr; when latest[obj] is in
//    the snapshot the read finishes in one round, Algorithm-C style.
//  * Client cache: readers remember (key, value) per object from completed
//    READs.  A later READ serves the cached value iff the fresh tag array
//    proves the cached key IS still latest[obj] — keys name immutable
//    versions, so the proof is exact.  All cache state dies on any
//    TakeoverNotice epoch bump.
//
// The coordinator tracks per-object write rates with a lazily-decayed EWMA
// over update-coor object sets and flips modes with hysteresis (switch_up /
// switch_down).  Each flip bumps a mode epoch that rides AdaptTagArrResp;
// readers adopt its C-mode list only at equal-or-newer epochs, so reordered
// responses can never roll modes backwards, and a READ in flight completes
// under the plan it started with.  Switches are reported through
// Runtime::note_switch, which the sim's schedule recorder turns into
// kSwitch ScheduleLog annotations (replayable, ddmin-shrinkable).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "proto/coor_system.hpp"

namespace snowkit {

/// The shared coordinator options (proto/coor_system.hpp) plus the
/// adaptive knobs.
struct AdaptiveOptions : CoorOptions {
  AdaptiveOptions() { name = "adaptive"; }

  /// B -> C when an object's EWMA write credit reaches switch_up; C -> B
  /// when it decays to switch_down.  The gap is the hysteresis band; the
  /// thresholds are deliberately low so small sim/fuzz workloads exercise
  /// both modes and the switch path.  Steady-state credit is write_rate*tau,
  /// so the defaults flip an object to prefetching at a sustained ~2
  /// writes/s and back below ~0.5/s — a B-mode object whose proof keeps
  /// failing at the tag array is exactly the one that should have been
  /// prefetched.
  double switch_up{4.0};
  double switch_down{1.0};
  /// EWMA decay time constant: credit halves every tau*ln2 of runtime time.
  TimeNs ewma_tau_ns{2'000'000'000};

  /// Client version cache (default on).
  bool cache_reads{true};

  /// FAULT INJECTION ONLY (fuzz/broken_adaptive): serve any cached entry
  /// without the latest[obj] freshness proof — the stale-read bug the
  /// differential-fuzz battery must convict.
  bool broken_cache{false};

  /// Throws std::invalid_argument on bad adaptive knobs (the shared options
  /// are checked by the builder).
  void validate() const;
};

/// Counters the adaptive layer exposes for benches and the cache-invariant
/// property test.  Reader-side counters reconcile exactly: every object of
/// every tag-array resolution is either a cache hit or a cache miss, and
/// every miss is resolved by prefetch or by a round-2 fetch.
struct AdaptiveStats {
  std::uint64_t reads{0};                ///< completed READ transactions.
  std::uint64_t one_round_reads{0};      ///< completed without any round-2 fetch.
  std::uint64_t cache_hits{0};           ///< objects served from the client cache.
  std::uint64_t cache_misses{0};         ///< objects that failed the cache proof.
  std::uint64_t cache_invalidations{0};  ///< entries dropped on TakeoverNotice.
  std::uint64_t prefetch_resolved{0};    ///< objects resolved from a C-mode prefetch.
  std::uint64_t round2_objects{0};       ///< objects fetched via ReadValBatchReq.
  std::uint64_t switches{0};             ///< coordinator mode flips (note_switch calls).
};

/// ProtocolSystem refinement exposing the adaptive counters; callers that
/// built through the registry reach it via dynamic_cast.
class AdaptiveSystem : public ProtocolSystem {
 public:
  using ProtocolSystem::ProtocolSystem;
  virtual AdaptiveStats stats() const = 0;
};

std::unique_ptr<ProtocolSystem> build_adaptive(Runtime& rt, HistoryRecorder& rec,
                                               const SystemConfig& cfg,
                                               AdaptiveOptions opts = {});

}  // namespace snowkit
