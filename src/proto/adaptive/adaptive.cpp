#include "proto/adaptive/adaptive.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "core/registry.hpp"

namespace snowkit {
namespace {

/// Adaptive reader.  Round 1: get-tag-arr to the coordinator plus batched
/// prefetches for C-mode and locally-uncached objects.  At the tag array,
/// every object resolves
/// through the first applicable source — client cache (iff the cached key IS
/// latest[obj]), prefetched list, or a batched round-2 fetch.  Whatever the
/// source, the value served is the one stored under latest[obj], so the
/// history is exactly what ReaderB would have produced.
class ReaderAdapt final : public CoorReader {
 public:
  ReaderAdapt(HistoryRecorder& rec, const Placement& place, std::size_t coor_shard,
              bool replicated, bool cache_reads, bool broken_cache)
      : CoorReader(rec, place, coor_shard), replicated_(replicated), cache_reads_(cache_reads),
        broken_cache_(broken_cache) {}

  void read(std::vector<ObjectId> objs, ReadCallback cb) override {
    SNOW_CHECK_MSG(!pending_, "reader " << id() << " already has a READ in flight");
    SNOW_CHECK(!objs.empty());
    const TxnId txn = rec_.begin_read(id(), objs);
    pending_.emplace();
    pending_->txn = txn;
    pending_->objs = std::move(objs);
    pending_->cb = std::move(cb);
    send_round1();
  }

  const AdaptiveStats& stats() const { return stats_; }

  void on_message(NodeId, const Message& m) override {
    if (const auto* tn = std::get_if<TakeoverNotice>(&m.payload)) {
      on_takeover(*tn);
      return;
    }
    if (const auto* ta = std::get_if<AdaptTagArrResp>(&m.payload)) {
      if (replicated_) {
        // Tolerate stale and duplicate responses (failover retries): only
        // the first tag array per attempt drives this round.
        if (!pending_ || pending_->txn != m.txn || pending_->have_tag_arr) return;
      } else {
        SNOW_CHECK(pending_ && pending_->txn == m.txn);
      }
      on_tag_arr(*ta);
      return;
    }
    if (const auto* pf = std::get_if<ReadValsBatchResp>(&m.payload)) {
      if (!pending_ || pending_->txn != m.txn) return;
      // Any snapshot is safe to consume, even from a superseded attempt:
      // resolution only ever serves the value stored under latest[obj], and
      // keys name immutable versions.  A stale list missing the key just
      // sends that object to round 2.
      for (const ObjectVersions& e : pf->entries) {
        pending_->max_versions =
            std::max(pending_->max_versions, static_cast<int>(e.versions.size()));
        pending_->prefetched[e.obj] = e.versions;
      }
      if (pending_->prefetch_outstanding > 0) --pending_->prefetch_outstanding;
      if (pending_->have_tag_arr) {
        resolve_prefetched();
        maybe_send_round2();
        maybe_complete();
      }
      return;
    }
    if (const auto* rb = std::get_if<ReadValBatchResp>(&m.payload)) {
      if (!pending_ || pending_->txn != m.txn) return;
      for (const BatchReadResult& e : rb->entries) {
        const auto it = pending_->want.find(e.obj);
        if (it == pending_->want.end() || !(it->second == e.key)) continue;  // stale attempt
        if (!e.found) {
          if (replicated_) {
            // GC raced the failover past our key: restart from the coordinator.
            restart_round();
            return;
          }
          SNOW_CHECK_MSG(e.found, "adaptive requested a watermark-protected key; it must exist");
        }
        pending_->got[e.obj] = e.value;
      }
      maybe_complete();
      return;
    }
    SNOW_UNREACHABLE("adaptive reader got unexpected payload");
  }

 private:
  struct Pending {
    TxnId txn{kInvalidTxn};
    std::vector<ObjectId> objs;
    ReadCallback cb;
    bool have_tag_arr{false};
    Tag tag{0};
    Tag watermark{0};
    std::map<ObjectId, WriteKey> want;  ///< this attempt's target keys.
    std::map<ObjectId, Value> got;
    std::map<ObjectId, std::vector<Version>> prefetched;
    std::size_t prefetch_outstanding{0};
    bool round2_sent{false};
    int attempts{1};
    int rounds{1};       ///< accumulated client send-waves, for finish_read.
    int max_versions{1};
  };

  void send_round1() {
    pending_->have_tag_arr = false;
    pending_->want.clear();
    pending_->got.clear();
    pending_->prefetched.clear();
    pending_->prefetch_outstanding = 0;
    pending_->round2_sent = false;
    send(coordinator(), Message{pending_->txn, tag_arr_req(pending_->objs)});
    // Prefetch (one batched frame per server shard): C-mode objects always —
    // their write rate says any cache entry is probably stale — and, when the
    // cache is on, objects with NO cache entry, since those are certain to
    // need a fetch and the prefetch turns their round 2 into round 1.  The
    // mode table thus governs exactly the contested case: a cached object
    // whose proof may or may not hold at the tag array.
    std::map<std::size_t, ReadValsBatchReq> by_shard;
    for (ObjectId obj : pending_->objs) {
      const bool uncached = cache_reads_ && cache_.find(obj) == cache_.end();
      if (!std::binary_search(modes_.begin(), modes_.end(), obj) && !uncached) continue;
      auto& batch = by_shard[place_.shard_of(obj)];
      batch.watermark = last_watermark_;
      batch.objs.push_back(obj);
    }
    for (auto& [shard, batch] : by_shard) {
      send(routes_.node_of(shard), Message{pending_->txn, std::move(batch)});
      ++pending_->prefetch_outstanding;
    }
  }

  void on_tag_arr(const AdaptTagArrResp& ta) {
    pending_->have_tag_arr = true;
    pending_->tag = ta.tag;
    pending_->watermark = ta.watermark;
    last_watermark_ = std::max(last_watermark_, ta.watermark);
    // Epoch fence: adopt the C-mode list only when it is at least as new as
    // the one we hold, so a held/reordered response can't roll modes back.
    if (ta.mode_epoch >= mode_epoch_) {
      modes_ = ta.modes;
      mode_epoch_ = ta.mode_epoch;
    }
    pending_->want = by_object(pending_->objs, ta.latest);
    for (ObjectId obj : pending_->objs) {
      const WriteKey& key = pending_->want.at(obj);
      if (cache_reads_ || broken_cache_) {
        const auto it = cache_.find(obj);
        // The freshness proof: the cached key must BE the per-object newest
        // in the tag array we just fetched.  Keys name immutable versions,
        // so a key match guarantees the cached value equals what the
        // object's server would return for latest[obj].  broken_cache skips
        // the proof — the planted stale-read bug.
        if (it != cache_.end() && (broken_cache_ || it->second.key == key)) {
          pending_->got[obj] = it->second.value;
          ++stats_.cache_hits;
          continue;
        }
      }
      ++stats_.cache_misses;
    }
    resolve_prefetched();
    maybe_send_round2();
    maybe_complete();
  }

  void resolve_prefetched() {
    for (const auto& [obj, versions] : pending_->prefetched) {
      if (pending_->got.count(obj) != 0) continue;
      const auto wit = pending_->want.find(obj);
      if (wit == pending_->want.end()) continue;
      const auto it = std::find_if(versions.begin(), versions.end(),
                                   [&](const Version& v) { return v.key == wit->second; });
      if (it == versions.end()) continue;  // write-val raced the listing: round 2
      pending_->got[obj] = it->value;
      ++stats_.prefetch_resolved;
    }
  }

  void maybe_send_round2() {
    // Wait for every round-1 prefetch before deciding: a list that is about
    // to arrive usually resolves its objects for free.
    if (pending_->round2_sent || pending_->prefetch_outstanding > 0) return;
    std::map<std::size_t, ReadValBatchReq> by_shard;
    for (ObjectId obj : pending_->objs) {
      if (pending_->got.count(obj) != 0) continue;
      auto& batch = by_shard[place_.shard_of(obj)];
      batch.watermark = pending_->watermark;
      batch.entries.push_back({obj, pending_->want.at(obj)});
      ++stats_.round2_objects;
    }
    if (by_shard.empty()) return;
    pending_->round2_sent = true;
    ++pending_->rounds;
    for (auto& [shard, batch] : by_shard) {
      send(routes_.node_of(shard), Message{pending_->txn, std::move(batch)});
    }
  }

  void restart_round() {
    // Same give-up discipline as ReaderB: a correct fleet converges in a
    // handful of attempts; exhausting the budget surfaces as a liveness
    // conviction rather than a harness crash.
    if (++pending_->attempts >= 100) return;
    ++pending_->rounds;
    send_round1();
  }

  void on_takeover(const TakeoverNotice& tn) {
    if (!routes_.update(tn.shard, tn.node, tn.epoch)) return;
    // The cache invariant: no entry survives a TakeoverNotice epoch bump.
    // (The key-match proof alone already makes surviving entries safe; the
    // wipe keeps failover reasoning local and is what the property test
    // pins.)
    stats_.cache_invalidations += cache_.size();
    cache_.clear();
    if (tn.shard == coor_shard_) {
      // New coordinator lineage: its mode epochs restart from zero, so our
      // fence must too.
      modes_.clear();
      mode_epoch_ = 0;
    }
    if (!pending_) return;
    restart_round();
  }

  void maybe_complete() {
    if (!pending_->have_tag_arr || pending_->got.size() != pending_->objs.size()) return;
    send_read_done(pending_->txn);
    ReadResult result;
    result.txn = pending_->txn;
    for (ObjectId obj : pending_->objs) {
      const Value v = pending_->got.at(obj);
      result.values.emplace_back(obj, v);
      if (cache_reads_ || broken_cache_) cache_[obj] = Version{pending_->want.at(obj), v};
    }
    ++stats_.reads;
    if (pending_->rounds == 1) ++stats_.one_round_reads;
    rec_.finish_read(pending_->txn, result.values, pending_->tag, pending_->rounds,
                     pending_->max_versions);
    auto cb = std::move(pending_->cb);
    pending_.reset();
    cb(result);
  }

  bool replicated_;
  bool cache_reads_;
  bool broken_cache_;
  std::vector<ObjectId> modes_;  ///< adopted C-mode objects, ascending.
  std::uint64_t mode_epoch_{0};
  Tag last_watermark_{0};
  std::map<ObjectId, Version> cache_;  ///< (key, value) per object.
  AdaptiveStats stats_;
  std::optional<Pending> pending_;
};

class SystemAdapt final : public CoorSystem<AdaptiveSystem> {
 public:
  using CoorSystem::CoorSystem;

  AdaptiveStats stats() const override {
    AdaptiveStats total;
    for (const CoorReader* node : nodes_.readers) {
      const AdaptiveStats& s = static_cast<const ReaderAdapt*>(node)->stats();
      total.reads += s.reads;
      total.one_round_reads += s.one_round_reads;
      total.cache_hits += s.cache_hits;
      total.cache_misses += s.cache_misses;
      total.cache_invalidations += s.cache_invalidations;
      total.prefetch_resolved += s.prefetch_resolved;
      total.round2_objects += s.round2_objects;
    }
    for (const SnowServer* c : nodes_.coordinators) total.switches += c->switches();
    return total;
  }
};

const ProtocolRegistration kRegisterAdaptive{
    ProtocolTraits{
        .name = "adaptive",
        .summary = "meta: per-object B<->C switching + watermark-proved client "
                   "cache + batched reads; serializes exactly like algo-b",
        .claims_strict_serializability = true,
        .advertises_strict_serializability = true,
        .provides_tags = true,
        .snow_s = true,
        .snow_n = true,
        .snow_o = false,  // one round on the hot path, but not always, and multi-version
        .snow_w = true,
        .mwmr = true,
        .supports_replication = true,
        .version_bound = "<=|W|+1",
    },
    [](Runtime& rt, HistoryRecorder& rec, const SystemConfig& cfg, const BuildOptions& opts) {
      AdaptiveOptions o;
      o.parse(opts);
      if (opts.has("switch_up")) o.switch_up = std::stod(opts.get("switch_up"));
      if (opts.has("switch_down")) o.switch_down = std::stod(opts.get("switch_down"));
      if (opts.has("ewma_tau_ms")) {
        o.ewma_tau_ns = static_cast<TimeNs>(opts.get_int("ewma_tau_ms")) * 1'000'000ull;
      }
      o.cache_reads = opts.get_bool("cache", true);
      return build_adaptive(rt, rec, cfg, o);
    }};

}  // namespace

void AdaptiveOptions::validate() const {
  if (!(switch_up > 0.0) || !(switch_down >= 0.0)) {
    throw std::invalid_argument("adaptive switch thresholds must be positive");
  }
  if (switch_up <= switch_down) {
    throw std::invalid_argument(
        "adaptive needs a hysteresis band: switch_up must exceed switch_down (got up=" +
        std::to_string(switch_up) + " down=" + std::to_string(switch_down) + ")");
  }
  if (ewma_tau_ns == 0) {
    throw std::invalid_argument("adaptive ewma_tau_ns must be positive");
  }
}

std::unique_ptr<ProtocolSystem> build_adaptive(Runtime& rt, HistoryRecorder& rec,
                                               const SystemConfig& cfg, AdaptiveOptions opts) {
  opts.validate();
  CoorNodes nodes = add_coor_nodes(
      rt, rec, cfg, opts, TagArrShape::kModes,
      [&](const Placement& place, bool replicated) {
        return std::make_unique<ReaderAdapt>(rec, place, opts.coordinator, replicated,
                                             opts.cache_reads, opts.broken_cache);
      },
      ModeTrackerConfig{opts.switch_up, opts.switch_down, opts.ewma_tau_ns});
  return std::make_unique<SystemAdapt>(opts.name, cfg, rt, std::move(nodes));
}

}  // namespace snowkit
