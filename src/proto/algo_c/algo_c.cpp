#include "proto/algo_c/algo_c.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <utility>

#include "common/assert.hpp"
#include "core/registry.hpp"

namespace snowkit {
namespace {

/// Algorithm C's READ client: get-tag-arr and read-vals in one parallel
/// round, then the feasibility descent over the returned versions.
class ReaderC final : public CoorReader {
 public:
  ReaderC(HistoryRecorder& rec, const Placement& place, std::size_t coor_shard, bool may_retry)
      : CoorReader(rec, place, coor_shard), may_retry_(may_retry) {}

  void read(std::vector<ObjectId> objs, TxnCallback cb) override {
    SNOW_CHECK_MSG(!pending_, "reader " << id() << " already has a READ in flight");
    SNOW_CHECK(!objs.empty());
    const TxnId txn = rec_.begin_read(id(), objs);
    pending_.emplace();
    pending_->txn = txn;
    pending_->objs = std::move(objs);
    pending_->cb = std::move(cb);
    pending_->attempts = 1;
    send_round();
  }

  void on_message(NodeId, const Message& m) override {
    if (const auto* tn = std::get_if<TakeoverNotice>(&m.payload)) {
      // A shard we depend on failed over: restart the (one-round) READ
      // against the current routes.  Any straggler responses from the old
      // attempt remain safe to consume (see GetTagArrResp below).
      if (!routes_.update(tn->shard, tn->node, tn->epoch)) return;
      if (!pending_) return;
      SNOW_CHECK_MSG(pending_->attempts < 100, "algo-c read livelocked across failovers");
      ++pending_->attempts;
      send_round();
      return;
    }
    if (const auto* ta = std::get_if<GetTagArrResp>(&m.payload)) {
      // Responses from a superseded retry attempt are indistinguishable from
      // current ones (same txn id) and safe to consume: any Vals snapshot a
      // server sent for this READ still supports the t* feasibility argument.
      if (!pending_ || pending_->txn != m.txn) return;
      pending_->tag = ta->tag;
      pending_->history = by_object(pending_->objs, ta->history);
      maybe_complete();
      return;
    }
    if (const auto* rv = std::get_if<ReadValsResp>(&m.payload)) {
      if (!pending_ || pending_->txn != m.txn) return;
      pending_->vals[rv->obj] = rv->versions;
      maybe_complete();
      return;
    }
    SNOW_UNREACHABLE("algo-c reader got unexpected payload");
  }

 private:
  struct Pending {
    TxnId txn{kInvalidTxn};
    std::vector<ObjectId> objs;
    TxnCallback cb;
    std::optional<Tag> tag;  ///< t_r, once the tag array arrived.
    std::map<ObjectId, std::vector<ListedKey>> history;  ///< per object, from the tag array.
    std::map<ObjectId, std::vector<Version>> vals;
    int attempts{0};
  };

  void send_round() {
    pending_->tag.reset();
    pending_->history.clear();
    pending_->vals.clear();
    send(coordinator(), Message{pending_->txn, tag_arr_req(pending_->objs)});
    for (ObjectId obj : pending_->objs) {
      send(server_of(obj), Message{pending_->txn, ReadValsReq{obj}});
    }
  }

  void maybe_complete() {
    if (!pending_->tag || pending_->vals.size() != pending_->objs.size()) return;

    const Tag t_r = *pending_->tag;
    // Feasibility descent over List positions t_r >= t >= 0 (header comment).
    // Candidate cuts: t_r and every listed position (others change nothing).
    std::vector<Tag> cuts{t_r};
    for (ObjectId obj : pending_->objs) {
      for (const ListedKey& lk : pending_->history.at(obj)) {
        if (lk.position <= t_r) cuts.push_back(lk.position);
      }
    }
    std::sort(cuts.begin(), cuts.end(), std::greater<>());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

    for (std::size_t i = 0; i < cuts.size(); ++i) {
      std::vector<std::pair<ObjectId, Value>> values;
      if (!try_cut(cuts[i], values)) continue;
      // Every position from this cut up to just below the next candidate
      // (cuts[0] is t_r) resolves identically, since no object of this READ
      // is listed in between.  Record the highest: a WRITE on other objects
      // listed in that range may have completed before this READ began, and
      // the lowest would order the READ before it (Lemma 20 P2).  The next
      // candidate is infeasible, so it lies above t*.
      const Tag tag = i == 0 ? cuts[0] : cuts[i - 1] - 1;
      complete(tag, std::move(values));
      return;
    }

    // No feasible cut: only possible when server-side GC raced this READ
    // (or a failover handed us mixed-lineage snapshots).
    SNOW_CHECK_MSG(may_retry_, "algo-c descent failed without GC enabled");
    SNOW_CHECK_MSG(pending_->attempts < 100, "algo-c read livelocked under GC");
    ++pending_->attempts;
    send_round();
  }

  bool try_cut(Tag t, std::vector<std::pair<ObjectId, Value>>& out) const {
    for (ObjectId obj : pending_->objs) {
      // Newest position <= t writing this object.  The shipped history is
      // GC'd below its anchor, so a cut older than every shipped entry is
      // unresolvable — infeasible, NOT "the initial version": treating it as
      // kappa_0 could resurrect a pruned prefix as a stale read.
      const WriteKey* key = nullptr;
      for (const ListedKey& lk : pending_->history.at(obj)) {
        if (lk.position <= t) key = &lk.key;  // history is position-ascending
      }
      if (key == nullptr) return false;
      const auto& versions = pending_->vals.at(obj);
      const auto it = std::find_if(versions.begin(), versions.end(),
                                   [&](const Version& v) { return v.key == *key; });
      if (it == versions.end()) return false;
      out.emplace_back(obj, it->value);
    }
    return true;
  }

  void complete(Tag t, std::vector<std::pair<ObjectId, Value>> values) {
    int max_versions = 0;
    for (const auto& [obj, versions] : pending_->vals) {
      (void)obj;
      max_versions = std::max(max_versions, static_cast<int>(versions.size()));
    }
    send_read_done(pending_->txn);
    const TxnResult result{pending_->txn, /*is_read=*/true, values};
    rec_.finish_read(pending_->txn, std::move(values), t, /*rounds=*/pending_->attempts,
                     max_versions);
    auto cb = std::move(pending_->cb);
    pending_.reset();
    cb(result);
  }

  bool may_retry_;
  std::optional<Pending> pending_;
};

const ProtocolRegistration kRegisterAlgoC{
    ProtocolTraits{
        .name = "algo-c",
        .summary = "§9: SNW + one-round READs at <=|W| versions per response, MWMR",
        .claims_strict_serializability = true,
        .provides_tags = true,
        .snow_s = true,
        .snow_n = true,
        .snow_o = false,  // one round but multi-version responses
        .snow_w = true,
        .mwmr = true,
        .supports_replication = true,
        .version_bound = "<=|W|+1",
    },
    [](Runtime& rt, HistoryRecorder& rec, const SystemConfig& cfg, const BuildOptions& opts) {
      AlgoCOptions o;
      o.parse(opts);
      return build_algo_c(rt, rec, cfg, o);
    }};

}  // namespace

std::unique_ptr<ProtocolSystem> build_algo_c(Runtime& rt, HistoryRecorder& rec,
                                             const SystemConfig& cfg, AlgoCOptions opts) {
  return build_coor_system(rt, rec, cfg, opts, TagArrShape::kWithHistory,
                           [&](const Placement& place, bool replicated) {
                             return std::make_unique<ReaderC>(
                                 rec, place, opts.coordinator,
                                 /*may_retry=*/opts.gc_versions || replicated);
                           });
}

}  // namespace snowkit
