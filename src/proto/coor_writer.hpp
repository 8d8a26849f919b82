// The writer of Pseudocode 5, shared verbatim by Algorithms B and C:
//   write-value:  (write-val, (kappa, v_i)) to every server in the write set,
//                 await all acks;
//   update-coor:  (update-coor, (kappa, b_1..b_k)) to the coordinator s*,
//                 which appends to List and returns the tag t_w.
//
// Object->server routing goes through the system's Placement, so the write
// set may span fewer servers than objects (sharded fleets); servers answer
// one WriteValAck per object either way.
//
// When `send_finalize` is set (snowkit's bounded-version extension for
// Algorithms B and C) the writer additionally fire-and-forgets the assigned
// List position to its servers — carrying the coordinator's read watermark
// from the update-coor ack, which is how watermark advancement reaches the
// version stores — and a finalize-coor notice back to the coordinator, which
// is how the coordinator learns the WRITE completed (the base of the
// watermark; see proto/version_store.hpp).  This adds messages but no round.
//
// With `replicated` set the writer tracks per-shard routes: a TakeoverNotice
// re-routes the shard and the writer re-sends whatever this shard still owes
// it — un-acked write-vals in phase one, the update-coor in phase two.  The
// coordinator deduplicates re-sent update-coors by (writer, txn), so a WRITE
// listed by the dead lineage is re-acked at its original position.  Stale
// acks from superseded attempts are dropped instead of SNOW_CHECKed.
#pragma once

#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "proto/api.hpp"
#include "proto/replica.hpp"

namespace snowkit {

class CoorWriter final : public WriteClientApi {
 public:
  CoorWriter(HistoryRecorder& rec, const Placement& place, std::size_t coor_shard,
             bool send_finalize, bool replicated = false)
      : rec_(rec), place_(place), coor_shard_(coor_shard),
        send_finalize_(send_finalize), replicated_(replicated), routes_(place.num_servers()) {}

  void write(std::vector<std::pair<ObjectId, Value>> writes, TxnCallback cb) override {
    SNOW_CHECK_MSG(!pending_, "writer " << id() << " already has a WRITE in flight");
    SNOW_CHECK(!writes.empty());
    const TxnId txn = rec_.begin_write(id(), writes);
    pending_.emplace();
    pending_->txn = txn;
    pending_->key = WriteKey{++z_, id()};
    pending_->writes = writes;
    pending_->cb = std::move(cb);
    std::vector<ObjectId> objs;
    for (const auto& [obj, value] : writes) {
      objs.push_back(obj);
      pending_->unacked.insert(obj);
      send(routes_.node_of(place_.shard_of(obj)),
           Message{txn, WriteValReq{pending_->key, obj, value}});
    }
    pending_->mask = object_set(std::move(objs));
  }

  void on_message(NodeId, const Message& m) override {
    if (const auto* tn = std::get_if<TakeoverNotice>(&m.payload)) {
      on_takeover(*tn);
      return;
    }
    if (const auto* ack = std::get_if<WriteValAck>(&m.payload)) {
      if (replicated_) {
        if (!pending_ || pending_->txn != m.txn || pending_->coor_sent) return;
      } else {
        SNOW_CHECK(pending_ && pending_->txn == m.txn);
      }
      pending_->unacked.erase(ack->obj);
      if (pending_->unacked.empty()) {
        pending_->coor_sent = true;
        send(routes_.node_of(coor_shard_),
             Message{m.txn, UpdateCoorReq{pending_->key, pending_->mask}});
      }
      return;
    }
    if (const auto* ack = std::get_if<UpdateCoorAck>(&m.payload)) {
      if (replicated_) {
        if (!pending_ || pending_->txn != m.txn) return;
      } else {
        SNOW_CHECK(pending_ && pending_->txn == m.txn);
      }
      if (send_finalize_) {
        send(routes_.node_of(coor_shard_), Message{m.txn, FinalizeCoorReq{ack->tag}});
        for (const auto& [obj, value] : pending_->writes) {
          (void)value;
          send(routes_.node_of(place_.shard_of(obj)),
               Message{m.txn, FinalizeReq{pending_->key, obj, ack->tag, ack->watermark}});
        }
      }
      rec_.finish_write(pending_->txn, ack->tag, /*rounds=*/2);
      auto cb = std::move(pending_->cb);
      const TxnResult result{pending_->txn, /*is_read=*/false, {}};
      pending_.reset();
      cb(result);
      return;
    }
    SNOW_UNREACHABLE("coor-writer got unexpected payload");
  }

 private:
  struct Pending {
    TxnId txn{kInvalidTxn};
    WriteKey key;
    std::vector<std::pair<ObjectId, Value>> writes;
    std::vector<ObjectId> mask;  ///< the update-coor object set.
    std::set<ObjectId> unacked;  ///< objects whose write-val ack is still owed.
    bool coor_sent{false};       ///< phase two: update-coor is in flight.
    TxnCallback cb;
  };

  void on_takeover(const TakeoverNotice& tn) {
    if (!routes_.update(tn.shard, tn.node, tn.epoch)) return;
    if (!pending_) return;
    if (!pending_->coor_sent) {
      // Phase one: the new primary never saw (or never committed) some of
      // our write-vals — re-send everything this shard has not acked.
      // Inserts are overwrite-idempotent, so duplicates are harmless.
      for (const auto& [obj, value] : pending_->writes) {
        if (place_.shard_of(obj) != tn.shard || pending_->unacked.count(obj) == 0) continue;
        send(tn.node, Message{pending_->txn, WriteValReq{pending_->key, obj, value}});
      }
    } else if (tn.shard == coor_shard_) {
      send(tn.node, Message{pending_->txn, UpdateCoorReq{pending_->key, pending_->mask}});
    }
  }

  HistoryRecorder& rec_;
  Placement place_;
  std::size_t coor_shard_;
  bool send_finalize_;
  bool replicated_;
  ShardRoutes routes_;
  std::uint64_t z_ = 0;
  std::optional<Pending> pending_;
};

}  // namespace snowkit
