#include "proto/occ/occ.hpp"

#include <map>
#include <optional>

#include "common/assert.hpp"
#include "core/registry.hpp"
#include "proto/coor_system.hpp"

namespace snowkit {
namespace {

class ReaderO final : public CoorReader {
 public:
  ReaderO(HistoryRecorder& rec, const Placement& place, std::size_t coor_shard, int max_optimistic)
      : CoorReader(rec, place, coor_shard), max_optimistic_(max_optimistic) {}

  void read(std::vector<ObjectId> objs, ReadCallback cb) override {
    SNOW_CHECK_MSG(!pending_, "reader " << id() << " already has a READ in flight");
    SNOW_CHECK(!objs.empty());
    const TxnId txn = rec_.begin_read(id(), objs);
    pending_.emplace();
    pending_->txn = txn;
    pending_->objs = std::move(objs);
    pending_->cb = std::move(cb);
    for (ObjectId obj : pending_->objs) pending_->guesses[obj] = kInitialKey;
    send_round();
  }

  void on_message(NodeId, const Message& m) override {
    if (const auto* ta = std::get_if<GetTagArrResp>(&m.payload)) {
      if (!pending_ || pending_->txn != m.txn || pending_->pessimistic) return;
      pending_->tag_arr = *ta;
      maybe_finish_round();
      return;
    }
    if (const auto* rv = std::get_if<ReadValResp>(&m.payload)) {
      if (!pending_ || pending_->txn != m.txn) return;
      // Only responses for the CURRENT guesses count; late responses from a
      // superseded round carry a stale key and are dropped.
      auto it = pending_->guesses.find(rv->obj);
      if (it == pending_->guesses.end() || !(it->second == rv->key)) return;
      // found == false means the speculative key was garbage-collected under
      // us — record the miss; it fails validation below and retries with the
      // tag array's (watermark-protected) keys.
      pending_->got[rv->obj] = rv->found ? std::optional<Value>(rv->value) : std::nullopt;
      maybe_finish_round();
      return;
    }
    SNOW_UNREACHABLE("occ reader got unexpected payload");
  }

 private:
  struct Pending {
    TxnId txn{kInvalidTxn};
    std::vector<ObjectId> objs;
    ReadCallback cb;
    std::map<ObjectId, WriteKey> guesses;
    std::map<ObjectId, std::optional<Value>> got;
    std::optional<GetTagArrResp> tag_arr;
    Tag watermark{0};  ///< newest coordinator watermark seen (read-val piggyback).
    int rounds{0};
    bool pessimistic{false};
    Tag pessimistic_tag{0};
  };

  void send_round() {
    ++pending_->rounds;
    pending_->tag_arr.reset();
    pending_->got.clear();
    send(coordinator(), Message{pending_->txn, tag_arr_req(pending_->objs)});
    for (const auto& [obj, key] : pending_->guesses) {
      send(server_of(obj), Message{pending_->txn, ReadValReq{obj, key, pending_->watermark}});
    }
  }

  void maybe_finish_round() {
    if (pending_->got.size() != pending_->objs.size()) return;

    bool missed = false;
    for (const auto& [obj, v] : pending_->got) {
      (void)obj;
      if (!v.has_value()) missed = true;
    }

    if (pending_->pessimistic) {
      // Algorithm-B style second phase: the fetched keys were taken from a
      // tag array while this READ was registered, so they are
      // watermark-protected and form the cut at that array's tag
      // unconditionally.
      SNOW_CHECK_MSG(!missed, "occ pessimistic round requested a GC'd key");
      complete(pending_->pessimistic_tag);
      return;
    }

    if (!pending_->tag_arr) return;
    const GetTagArrResp& ta = *pending_->tag_arr;
    pending_->watermark = std::max(pending_->watermark, ta.watermark);
    const auto latest = by_object(pending_->objs, ta.latest);
    if (!missed && latest == pending_->guesses) {
      // The values just fetched are still the newest per object as of the
      // coordinator's List at tag t_r: a consistent cut.
      complete(ta.tag);
      return;
    }

    // Validation failed: adopt the newer keys and retry.
    pending_->guesses = latest;
    if (max_optimistic_ > 0 && pending_->rounds >= max_optimistic_) {
      // Bounded fallback: one pessimistic round reading exactly the cut the
      // last tag array named (no re-validation needed — Algorithm B).
      pending_->pessimistic = true;
      pending_->pessimistic_tag = ta.tag;
      ++pending_->rounds;
      pending_->got.clear();
      for (const auto& [obj, key] : pending_->guesses) {
        send(server_of(obj), Message{pending_->txn, ReadValReq{obj, key, pending_->watermark}});
      }
      return;
    }
    send_round();
  }

  void complete(Tag tag) {
    send_read_done(pending_->txn);
    ReadResult result;
    result.txn = pending_->txn;
    for (ObjectId obj : pending_->objs) {
      result.values.emplace_back(obj, *pending_->got.at(obj));
    }
    rec_.finish_read(pending_->txn, result.values, tag, pending_->rounds, /*max_versions=*/1);
    auto cb = std::move(pending_->cb);
    pending_.reset();
    cb(result);
  }

  int max_optimistic_;
  std::optional<Pending> pending_;
};

const ProtocolRegistration kRegisterOcc{
    ProtocolTraits{
        .name = "occ-reads",
        .summary = "optimistic one-version reads: the (inf, 1) cell of Fig. 1(b)",
        .claims_strict_serializability = true,
        .provides_tags = true,
        .snow_s = true,
        .snow_n = true,
        .snow_o = false,  // one version but unbounded rounds
        .snow_w = true,
        .mwmr = true,
        .version_bound = "1",
    },
    [](Runtime& rt, HistoryRecorder& rec, const SystemConfig& cfg, const BuildOptions& opts) {
      OccOptions o;
      o.coordinator = static_cast<std::size_t>(opts.get_int("coordinator", 0));
      o.max_optimistic_rounds = static_cast<int>(opts.get_int("max_optimistic_rounds", 0));
      o.gc_versions = opts.get_bool("gc_versions", false);
      return build_occ(rt, rec, cfg, o);
    }};

}  // namespace

std::unique_ptr<ProtocolSystem> build_occ(Runtime& rt, HistoryRecorder& rec,
                                          const SystemConfig& cfg, OccOptions opts) {
  CoorOptions coor;
  coor.coordinator = opts.coordinator;
  coor.gc_versions = opts.gc_versions;
  coor.name = "occ-reads";
  return build_coor_system(rt, rec, cfg, coor, TagArrShape::kLatest,
                           [&](const Placement& place, bool) {
                             return std::make_unique<ReaderO>(rec, place, opts.coordinator,
                                                              opts.max_optimistic_rounds);
                           });
}

}  // namespace snowkit
