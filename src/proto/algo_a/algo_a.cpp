#include "proto/algo_a/algo_a.hpp"

#include <algorithm>
#include <map>

#include "common/assert.hpp"
#include "core/registry.hpp"

namespace snowkit {
namespace {

class ServerA final : public Node {
 public:
  void on_message(NodeId from, const Message& m) override {
    if (const auto* wv = std::get_if<WriteValReq>(&m.payload)) {
      stores_[wv->obj].insert(wv->key, wv->value);
      send(from, Message{m.txn, WriteValAck{wv->key, wv->obj}});
    } else if (const auto* rv = std::get_if<ReadValReq>(&m.payload)) {
      // Non-blocking + one-version: respond immediately with exactly the
      // requested version.  Algorithm A guarantees kappa_i is present: its
      // write-val was acked before the info-reader that put it in List.
      send(from, Message{m.txn, ReadValResp{rv->obj, rv->key, stores_[rv->obj].get(rv->key)}});
    } else {
      SNOW_UNREACHABLE("algo-a server got unexpected payload");
    }
  }

 private:
  std::map<ObjectId, VersionStore> stores_;  ///< per hosted object.
};

class ReaderA final : public ReadClientApi {
 public:
  ReaderA(HistoryRecorder& rec, const Placement& place) : rec_(rec), place_(place) {
    list_.push_back({kInitialKey, {}});  // List[0] covers every object implicitly
  }

  void read(std::vector<ObjectId> objs, TxnCallback cb) override {
    SNOW_CHECK_MSG(!pending_, "reader " << id() << " already has a READ in flight");
    SNOW_CHECK(!objs.empty());
    const TxnId txn = rec_.begin_read(id(), objs);
    pending_.emplace();
    pending_->txn = txn;
    pending_->objs = objs;
    pending_->cb = std::move(cb);
    // The read's Lemma-20 tag is the newest List position overall (not just
    // over the objects read): any WRITE that completed before this READ was
    // invoked already sits in List, so P2 (no real-time inversion) holds
    // even for writes touching other objects.
    pending_->tag = static_cast<Tag>(list_.size() - 1);
    for (ObjectId obj : objs) {
      const std::size_t j = latest_entry_for(obj);
      send(place_.server_node(obj), Message{txn, ReadValReq{obj, list_[j].first}});
    }
  }

  void on_message(NodeId from, const Message& m) override {
    if (const auto* ir = std::get_if<InfoReaderReq>(&m.payload)) {
      list_.push_back({ir->key, ir->mask});
      send(from, Message{m.txn, InfoReaderAck{static_cast<Tag>(list_.size() - 1)}});
      return;
    }
    if (const auto* rr = std::get_if<ReadValResp>(&m.payload)) {
      SNOW_CHECK(pending_ && pending_->txn == m.txn);
      pending_->got[rr->obj] = rr->value;
      if (pending_->got.size() == pending_->objs.size()) complete();
      return;
    }
    SNOW_UNREACHABLE("algo-a reader got unexpected payload");
  }

 private:
  struct Pending {
    TxnId txn{kInvalidTxn};
    std::vector<ObjectId> objs;
    std::map<ObjectId, Value> got;
    Tag tag{0};
    TxnCallback cb;
  };

  std::size_t latest_entry_for(ObjectId obj) const {
    for (std::size_t j = list_.size(); j-- > 1;) {
      const auto& objs = list_[j].second;
      if (std::binary_search(objs.begin(), objs.end(), obj)) return j;
    }
    return 0;  // the initial entry
  }

  void complete() {
    TxnResult result{pending_->txn, /*is_read=*/true, {}};
    for (ObjectId obj : pending_->objs) result.values.emplace_back(obj, pending_->got.at(obj));
    rec_.finish_read(pending_->txn, result.values, pending_->tag, /*rounds=*/1,
                     /*max_versions=*/1);
    auto cb = std::move(pending_->cb);
    pending_.reset();
    cb(result);
  }

  HistoryRecorder& rec_;
  Placement place_;
  std::vector<std::pair<WriteKey, std::vector<ObjectId>>> list_;  ///< (key, object set).
  std::optional<Pending> pending_;
};

class WriterA final : public WriteClientApi {
 public:
  WriterA(HistoryRecorder& rec, const Placement& place, std::vector<NodeId> readers)
      : rec_(rec), place_(place), readers_(std::move(readers)) {}

  void write(std::vector<std::pair<ObjectId, Value>> writes, TxnCallback cb) override {
    SNOW_CHECK_MSG(!pending_, "writer " << id() << " already has a WRITE in flight");
    SNOW_CHECK(!writes.empty());
    const TxnId txn = rec_.begin_write(id(), writes);
    pending_.emplace();
    pending_->txn = txn;
    pending_->key = WriteKey{++z_, id()};
    pending_->await_server_acks = writes.size();
    pending_->await_reader_acks = readers_.size();
    pending_->cb = std::move(cb);
    std::vector<ObjectId> objs;
    for (const auto& [obj, value] : writes) {
      objs.push_back(obj);
      send(place_.server_node(obj), Message{txn, WriteValReq{pending_->key, obj, value}});
    }
    pending_->mask = object_set(std::move(objs));
  }

  void on_message(NodeId, const Message& m) override {
    if (std::holds_alternative<WriteValAck>(m.payload)) {
      SNOW_CHECK(pending_ && pending_->txn == m.txn);
      if (--pending_->await_server_acks == 0) {
        // info-reader phase: the C2C step.  With multiple readers (the
        // deliberately unsafe Fig. 1(a) demo) all readers are informed.
        for (NodeId r : readers_) {
          send(r, Message{m.txn, InfoReaderReq{pending_->key, pending_->mask}});
        }
      }
      return;
    }
    if (const auto* ack = std::get_if<InfoReaderAck>(&m.payload)) {
      SNOW_CHECK(pending_ && pending_->txn == m.txn);
      pending_->tag = std::max(pending_->tag, ack->tag);
      if (--pending_->await_reader_acks == 0) {
        rec_.finish_write(pending_->txn, pending_->tag, /*rounds=*/2);
        auto cb = std::move(pending_->cb);
        const TxnResult result{pending_->txn, /*is_read=*/false, {}};
        pending_.reset();
        cb(result);
      }
      return;
    }
    SNOW_UNREACHABLE("algo-a writer got unexpected payload");
  }

 private:
  struct Pending {
    TxnId txn{kInvalidTxn};
    WriteKey key;
    std::vector<ObjectId> mask;  ///< the info-reader object set.
    std::size_t await_server_acks{0};
    std::size_t await_reader_acks{0};
    Tag tag{0};
    TxnCallback cb;
  };

  HistoryRecorder& rec_;
  Placement place_;
  std::vector<NodeId> readers_;
  std::uint64_t z_ = 0;
  std::optional<Pending> pending_;
};

const ProtocolRegistration kRegisterAlgoA{
    ProtocolTraits{
        .name = "algo-a",
        .summary = "§5.2: full SNOW READs via client-to-client communication, MWSR",
        .claims_strict_serializability = true,
        .provides_tags = true,
        .snow_s = true,
        .snow_n = true,
        .snow_o = true,
        .snow_w = true,
        .mwmr = false,  // single reader; multi-reader builds are unsafe demos
    },
    [](Runtime& rt, HistoryRecorder& rec, const SystemConfig& cfg, const BuildOptions& opts) {
      AlgoAOptions o;
      o.allow_multiple_readers = opts.get_bool("allow_multiple_readers", false);
      return build_algo_a(rt, rec, cfg, o);
    }};

}  // namespace

std::unique_ptr<ProtocolSystem> build_algo_a(Runtime& rt, HistoryRecorder& rec,
                                             const SystemConfig& cfg, AlgoAOptions opts) {
  cfg.validate();
  SNOW_CHECK_MSG(cfg.num_readers == 1 || opts.allow_multiple_readers,
                 "Algorithm A is SNOW only in MWSR; pass allow_multiple_readers to build the "
                 "intentionally unsafe multi-reader demo");
  const Placement place(cfg);
  rec.attach_runtime(&rt);
  for (std::size_t i = 0; i < place.num_servers(); ++i) {
    const NodeId id = rt.add_node(std::make_unique<ServerA>());
    SNOW_CHECK(id == i);  // servers occupy node ids [0, s)
  }
  auto readers = add_clients<ReadClientApi>(
      rt, cfg.num_readers, [&] { return std::make_unique<ReaderA>(rec, place); });
  std::vector<NodeId> reader_ids;
  for (const ReadClientApi* r : readers) reader_ids.push_back(r->id());
  auto writers = add_clients<WriteClientApi>(
      rt, cfg.num_writers, [&] { return std::make_unique<WriterA>(rec, place, reader_ids); });
  return std::make_unique<ProtocolSystem>("algo-a", cfg, rt, readers, writers);
}

}  // namespace snowkit
