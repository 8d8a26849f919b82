#include "proto/snow_server.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace snowkit {

/// Per-object write-rate tracker: decay the credit by exp(-dt/tau), add 1
/// per written object, flip the mode with hysteresis.  Runs on the primary at
/// update-coor time, so it observes exactly the listing traffic; it reads
/// only Runtime::now_ns (virtual in the sim), so replayed schedules
/// re-derive identical switch sequences.  The C-mode objects are kept as the
/// sorted id list a tag array carries, updated only on the rare flips.
class SnowServer::ModeTracker {
 public:
  ModeTracker(std::size_t k, const ModeTrackerConfig& cfg) : k_(k), cfg_(cfg) { reset(); }

  void reset() {
    c_mode_.clear();
    credit_.assign(k_, 0.0);
    last_.assign(k_, 0);
    epoch_ = 0;
  }

  void observe_write(Runtime& rt, const std::vector<ObjectId>& objs) {
    const TimeNs now = rt.now_ns();
    for (ObjectId obj : objs) {
      if (obj >= k_) continue;  // names no object
      double& credit = credit_[obj];
      if (now > last_[obj]) {
        credit *= std::exp(-static_cast<double>(now - last_[obj]) /
                           static_cast<double>(cfg_.ewma_tau_ns));
      }
      credit += 1.0;
      last_[obj] = now;
      const auto it = std::lower_bound(c_mode_.begin(), c_mode_.end(), obj);
      const bool is_c = it != c_mode_.end() && *it == obj;
      const bool want_c = is_c ? credit > cfg_.switch_down : credit >= cfg_.switch_up;
      if (want_c == is_c) continue;
      if (want_c) {
        c_mode_.insert(it, obj);
      } else {
        c_mode_.erase(it);
      }
      ++epoch_;
      ++switches_;
      rt.note_switch(obj, want_c ? 1 : 0);
    }
  }

  const std::vector<ObjectId>& modes() const { return c_mode_; }
  std::uint64_t epoch() const { return epoch_; }
  std::uint64_t switches() const { return switches_; }

 private:
  std::size_t k_;
  ModeTrackerConfig cfg_;
  std::vector<ObjectId> c_mode_;  ///< objects in C-mode, ascending.
  std::vector<double> credit_;
  std::vector<TimeNs> last_;
  std::uint64_t epoch_{0};
  std::uint64_t switches_{0};  ///< survives crashes: a lifetime counter.
};

SnowServer::SnowServer(const SnowServerConfig& cfg, std::optional<Replicator::Config> repl,
                       std::unique_ptr<WalStorage> wal)
    : cfg_(cfg) {
  if (cfg_.is_coordinator) {
    list_.emplace(cfg_.num_objects);
    if (cfg_.shape == TagArrShape::kModes) {
      modes_ = std::make_unique<ModeTracker>(cfg_.num_objects, cfg_.modes);
    }
  }
  if (repl) {
    repl_ = std::make_unique<Replicator>(
        std::move(*repl), std::move(wal), [this](NodeId to, Message m) { send(to, std::move(m)); },
        [this](NodeId from, const Message& m) { on_message(from, m); }, &stores_, &list_);
  }
}

SnowServer::~SnowServer() = default;

void SnowServer::on_start() {
  if (repl_ != nullptr) {
    rt().watch_node(id(), repl_->peer_node());
    repl_->boot();
  }
}

void SnowServer::on_crash() {
  stores_.clear();
  if (cfg_.is_coordinator) list_.emplace(cfg_.num_objects);
  if (modes_ != nullptr) modes_->reset();  // advisory state dies with the lineage
  repl_->on_crash();
}

std::uint64_t SnowServer::switches() const { return modes_ != nullptr ? modes_->switches() : 0; }

void SnowServer::on_message(NodeId from, const Message& m) {
  if (repl_ != nullptr) {
    if (repl_->consume(from, m)) return;
    if (!repl_->is_primary()) {
      // Stale route: park or redirect, never drop (see defer_client).
      repl_->defer_client(from, m);
      return;
    }
  }
  if (const auto* wv = std::get_if<WriteValReq>(&m.payload)) {
    const WriteValAck ack{wv->key, wv->obj};
    if (repl_ != nullptr) {
      ReplRecord rec;
      rec.kind = ReplRecord::kInsert;
      rec.obj = wv->obj;
      rec.key = wv->key;
      rec.value = wv->value;
      repl_->append(std::move(rec),
                    [this, from, txn = m.txn, ack] { send(from, Message{txn, ack}); });
    } else {
      stores_[wv->obj].insert(wv->key, wv->value);
      send(from, Message{m.txn, ack});
    }
    return;
  }
  if (const auto* rv = std::get_if<ReadValReq>(&m.payload)) {
    VersionStore& vals = stores_[rv->obj];
    if (cfg_.gc) vals.advance_watermark(rv->watermark);
    const auto v = vals.try_get(rv->key);
    send(from, Message{m.txn, ReadValResp{rv->obj, rv->key, v.value_or(kInitialValue),
                                          v.has_value()}});
    return;
  }
  if (const auto* rb = std::get_if<ReadValBatchReq>(&m.payload)) {
    // Round-2 batch: every same-server object of one READ in one frame.
    ReadValBatchResp resp;
    resp.entries.reserve(rb->entries.size());
    for (const BatchReadEntry& e : rb->entries) {
      VersionStore& vals = stores_[e.obj];
      if (cfg_.gc) vals.advance_watermark(rb->watermark);
      const auto v = vals.try_get(e.key);
      resp.entries.push_back({e.obj, e.key, v.value_or(kInitialValue), v.has_value()});
    }
    send(from, Message{m.txn, std::move(resp)});
    return;
  }
  if (const auto* rs = std::get_if<ReadValsReq>(&m.payload)) {
    send(from, Message{m.txn, ReadValsResp{rs->obj, stores_[rs->obj].all()}});
    return;
  }
  if (const auto* pb = std::get_if<ReadValsBatchReq>(&m.payload)) {
    // Round-1 prefetch: the version chains of a READ's objects on this server.
    ReadValsBatchResp resp;
    resp.entries.reserve(pb->objs.size());
    for (ObjectId obj : pb->objs) {
      VersionStore& vals = stores_[obj];
      if (cfg_.gc) vals.advance_watermark(pb->watermark);
      resp.entries.push_back({obj, vals.all()});
    }
    send(from, Message{m.txn, std::move(resp)});
    return;
  }
  if (repl_ != nullptr && cfg_.gc) {
    // The finalize notices mutate GC state, so they ride the replicated
    // log; read-done stays primary-local (reader floors are per-lineage).
    if (const auto* fr = std::get_if<FinalizeReq>(&m.payload)) {
      ReplRecord rec;
      rec.kind = ReplRecord::kFinalize;
      rec.obj = fr->obj;
      rec.key = fr->key;
      rec.position = fr->position;
      rec.watermark = fr->watermark;
      repl_->append(std::move(rec), nullptr);
      return;
    }
    if (const auto* fc = std::get_if<FinalizeCoorReq>(&m.payload)) {
      SNOW_CHECK_MSG(cfg_.is_coordinator, "finalize-coor sent to non-coordinator");
      ReplRecord rec;
      rec.kind = ReplRecord::kCoorFinalize;
      rec.position = fc->position;
      repl_->append(std::move(rec), nullptr);
      return;
    }
  }
  if (handle_gc_notice(from, m, cfg_.gc, cfg_.is_coordinator, stores_, list_)) return;
  if (const auto* uc = std::get_if<UpdateCoorReq>(&m.payload)) {
    SNOW_CHECK_MSG(cfg_.is_coordinator, "update-coor sent to non-coordinator");
    update_coor(from, m.txn, *uc);
    return;
  }
  if (const auto* gt = std::get_if<GetTagArrReq>(&m.payload)) {
    SNOW_CHECK_MSG(cfg_.is_coordinator, "get-tag-arr sent to non-coordinator");
    list_->register_reader(from, m.txn);
    send_tag_arr(from, m.txn, *gt);
    return;
  }
  SNOW_UNREACHABLE("snow server got unexpected payload");
}

void SnowServer::update_coor(NodeId from, TxnId txn, const UpdateCoorReq& uc) {
  if (repl_ == nullptr) {
    if (modes_ != nullptr) modes_->observe_write(rt(), uc.mask);
    const Tag pos = list_->push(uc.key, uc.mask);
    send(from, Message{txn, UpdateCoorAck{pos, list_->watermark()}});
    return;
  }
  // A writer re-routed by a takeover re-sends its update-coor: deduplicate
  // by (writer, txn) — re-ack a listing the old lineage already committed,
  // never list (or credit the write-rate tracker) twice.
  switch (repl_->check_push(from, txn)) {
    case Replicator::PushStatus::kPending:
      return;  // already logged; the commit waiter will ack
    case Replicator::PushStatus::kCommitted:
      send(from,
           Message{txn, UpdateCoorAck{repl_->committed_position(from), list_->watermark()}});
      return;
    case Replicator::PushStatus::kNew:
      break;
  }
  if (modes_ != nullptr) modes_->observe_write(rt(), uc.mask);
  ReplRecord rec;
  rec.kind = ReplRecord::kListPush;
  rec.key = uc.key;
  rec.mask = uc.mask;
  rec.txn = txn;
  rec.writer = from;
  rec.position = repl_->next_push_position();
  const Tag pos = rec.position;
  repl_->append(std::move(rec), [this, from, txn, pos] {
    send(from, Message{txn, UpdateCoorAck{pos, list_->watermark()}});
  });
}

void SnowServer::send_tag_arr(NodeId from, TxnId txn, const GetTagArrReq& req) {
  // t_r is the newest List position overall, so a READ never orders before
  // a WRITE that already completed (Lemma 20 P2); the per-object version
  // choice uses each object's newest entry.  Entries cover only the READ's
  // objects (`want`, ascending), so the array costs O(span) however many
  // objects the system has.  Ids >= k name no object and are skipped.
  const std::size_t k = cfg_.num_objects;
  const bool with_history = cfg_.shape == TagArrShape::kWithHistory;
  std::vector<WriteKey> latest;
  std::vector<std::vector<ListedKey>> history;
  for (ObjectId obj : req.want) {
    if (obj >= k) continue;
    latest.push_back(list_->latest(obj));
    // The live history of each wanted object: its anchor entry plus
    // everything above the watermark — all a READ registered at or after
    // this instant can legally resolve against.
    if (with_history) history.push_back(list_->history_vec(obj));
  }

  if (cfg_.shape == TagArrShape::kModes) {
    AdaptTagArrResp resp;
    resp.tag = list_->tag();
    resp.watermark = list_->watermark();
    resp.latest = std::move(latest);
    resp.modes = modes_->modes();
    resp.mode_epoch = modes_->epoch();
    send(from, Message{txn, std::move(resp)});
    return;
  }
  GetTagArrResp resp;
  resp.tag = list_->tag();
  resp.watermark = list_->watermark();
  resp.latest = std::move(latest);
  resp.history = std::move(history);
  send(from, Message{txn, std::move(resp)});
}

}  // namespace snowkit
