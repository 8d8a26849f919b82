#include "proto/eiger/eiger.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "common/assert.hpp"
#include "core/registry.hpp"
#include "metrics/gc_stats.hpp"

namespace snowkit {
namespace {

/// Eiger's per-object version chains are pruned with the same read-floor
/// idea as proto/version_store.hpp, server-locally: every first-round read
/// records the commit timestamp it handed out as the sender's floor (its
/// eventual read-at time is >= that floor, because the effective time is the
/// max of the first round's valid_from values and this server contributed
/// one of them), and a read-done notice clears it.  A version may go once a
/// newer version exists at or below every active floor — so the chain stays
/// at (active readers + 1) entries instead of growing with every write.
class ServerE final : public Node {
 public:
  void on_message(NodeId from, const Message& m) override {
    if (const auto* w = std::get_if<EigerWriteReq>(&m.payload)) {
      bump(w->lamport);
      versions(w->obj).emplace_back(clock_, w->value);
      GcCounters::global().on_insert();
      prune(w->obj);
      send(from, Message{m.txn, EigerWriteAck{w->obj, clock_, clock_}});
      return;
    }
    if (const auto* r = std::get_if<EigerReadReq>(&m.payload)) {
      bump(r->lamport);
      const auto& [ts, value] = versions(r->obj).back();
      ReaderFloors& rf = floors_[from];
      if (rf.txn != m.txn) {
        // A new READ from this sender implies its previous one completed
        // even if the read-done notice was lost in reordering.
        rf.txn = m.txn;
        rf.by_obj.clear();
      }
      rf.by_obj[r->obj] = ts;
      send(from, Message{m.txn, EigerReadResp{r->obj, value, ts, clock_, clock_}});
      return;
    }
    if (const auto* r = std::get_if<EigerReadAtReq>(&m.payload)) {
      bump(r->lamport);
      // Newest version with commit_ts <= at (the list is ts-ascending).  The
      // sender's first-round floor pins that version: at >= floor, and
      // everything at or above the floor is retained.
      const auto& vers = versions(r->obj);
      Value value = vers.front().second;
      for (const auto& [ts, v] : vers) {
        if (ts <= r->at) value = v;
      }
      send(from, Message{m.txn, EigerReadAtResp{r->obj, value, clock_}});
      return;
    }
    if (const auto* rd = std::get_if<ReadDoneReq>(&m.payload)) {
      auto it = floors_.find(from);
      if (it == floors_.end() || it->second.txn > rd->txn) return;  // stale notice
      floors_.erase(it);
      for (const auto& [obj, vers] : versions_) {
        (void)vers;
        prune(obj);
      }
      return;
    }
    SNOW_UNREACHABLE("eiger server got unexpected payload");
  }

 private:
  void bump(std::uint64_t incoming) { clock_ = std::max(clock_, incoming) + 1; }

  /// Per-object ts-ascending version list, lazily seeded with the initial
  /// version.  The Lamport clock stays per server: co-hosted objects share
  /// it, which only tightens Eiger's validity intervals.
  std::vector<std::pair<std::uint64_t, Value>>& versions(ObjectId obj) {
    auto [it, inserted] = versions_.try_emplace(obj);
    if (inserted) {
      it->second.emplace_back(0, kInitialValue);
      GcCounters::global().on_insert();
    }
    return it->second;
  }

  /// Drops every version older than the newest one at or below the minimum
  /// active read floor for `obj` (all of them when no read is in flight).
  void prune(ObjectId obj) {
    auto& vers = versions(obj);
    std::uint64_t floor = ~0ull;
    for (const auto& [reader, rf] : floors_) {
      auto it = rf.by_obj.find(obj);
      if (it != rf.by_obj.end()) floor = std::min(floor, it->second);
    }
    std::size_t keep_from = 0;
    for (std::size_t i = 0; i < vers.size(); ++i) {
      if (vers[i].first <= floor) keep_from = i;
    }
    if (keep_from == 0) return;
    vers.erase(vers.begin(), vers.begin() + static_cast<std::ptrdiff_t>(keep_from));
    GcCounters::global().on_prune(keep_from);
  }

  struct ReaderFloors {
    TxnId txn{kInvalidTxn};
    std::map<ObjectId, std::uint64_t> by_obj;  ///< first-round ts handed out.
  };

  std::uint64_t clock_ = 0;
  std::map<ObjectId, std::vector<std::pair<std::uint64_t, Value>>> versions_;
  std::map<NodeId, ReaderFloors> floors_;
};

class ReaderE final : public ReadClientApi {
 public:
  ReaderE(HistoryRecorder& rec, const Placement& place) : rec_(rec), place_(place) {}

  void read(std::vector<ObjectId> objs, TxnCallback cb) override {
    SNOW_CHECK_MSG(!pending_, "reader " << id() << " already has a READ in flight");
    SNOW_CHECK(!objs.empty());
    const TxnId txn = rec_.begin_read(id(), objs);
    pending_.emplace();
    pending_->txn = txn;
    pending_->objs = objs;
    pending_->cb = std::move(cb);
    for (ObjectId obj : objs) {
      send(place_.server_node(obj), Message{txn, EigerReadReq{obj, clock_}});
    }
  }

  void on_message(NodeId, const Message& m) override {
    if (const auto* r = std::get_if<EigerReadResp>(&m.payload)) {
      SNOW_CHECK(pending_ && pending_->txn == m.txn);
      clock_ = std::max(clock_, r->lamport) + 1;
      pending_->first[r->obj] = *r;
      if (pending_->first.size() == pending_->objs.size()) first_round_done();
      return;
    }
    if (const auto* r = std::get_if<EigerReadAtResp>(&m.payload)) {
      SNOW_CHECK(pending_ && pending_->txn == m.txn);
      clock_ = std::max(clock_, r->lamport) + 1;
      pending_->second[r->obj] = r->value;
      if (pending_->second.size() == pending_->objs.size()) complete(/*rounds=*/2);
      return;
    }
    SNOW_UNREACHABLE("eiger reader got unexpected payload");
  }

 private:
  struct Pending {
    TxnId txn{kInvalidTxn};
    std::vector<ObjectId> objs;
    std::map<ObjectId, EigerReadResp> first;
    std::map<ObjectId, Value> second;
    std::uint64_t effective{0};
    TxnCallback cb;
  };

  void first_round_done() {
    // Eiger's validity check: do the per-object logical intervals intersect?
    std::uint64_t lo = 0;
    std::uint64_t hi = ~0ull;
    for (const auto& [obj, resp] : pending_->first) {
      (void)obj;
      lo = std::max(lo, resp.valid_from);
      hi = std::min(hi, resp.valid_until);
    }
    if (lo <= hi) {
      // Intervals overlap: accept the first-round values (one round).  This
      // is the acceptance path Fig. 5 exploits.
      for (const auto& [obj, resp] : pending_->first) pending_->second[obj] = resp.value;
      complete(/*rounds=*/1);
      return;
    }
    // Slow path: re-read everything at the effective time (second round).
    pending_->effective = lo;
    for (ObjectId obj : pending_->objs) {
      send(place_.server_node(obj), Message{pending_->txn, EigerReadAtReq{obj, lo, clock_}});
    }
  }

  void complete(int rounds) {
    // Unpin this read's floors (fire-and-forget, one notice per server read).
    std::set<NodeId> servers;
    for (ObjectId obj : pending_->objs) servers.insert(place_.server_node(obj));
    for (NodeId s : servers) send(s, Message{kInvalidTxn, ReadDoneReq{pending_->txn}});
    TxnResult result{pending_->txn, /*is_read=*/true, {}};
    for (ObjectId obj : pending_->objs) result.values.emplace_back(obj, pending_->second.at(obj));
    rec_.finish_read(pending_->txn, result.values, kInvalidTag, rounds, /*max_versions=*/1);
    auto cb = std::move(pending_->cb);
    pending_.reset();
    cb(result);
  }

  HistoryRecorder& rec_;
  Placement place_;
  std::uint64_t clock_ = 0;
  std::optional<Pending> pending_;
};

class WriterE final : public WriteClientApi {
 public:
  WriterE(HistoryRecorder& rec, const Placement& place) : rec_(rec), place_(place) {}

  void write(std::vector<std::pair<ObjectId, Value>> writes, TxnCallback cb) override {
    SNOW_CHECK_MSG(!pending_, "writer " << id() << " already has a WRITE in flight");
    SNOW_CHECK(!writes.empty());
    const TxnId txn = rec_.begin_write(id(), writes);
    pending_.emplace();
    pending_->txn = txn;
    pending_->await = writes.size();
    pending_->cb = std::move(cb);
    for (const auto& [obj, value] : writes) {
      send(place_.server_node(obj), Message{txn, EigerWriteReq{obj, value, clock_}});
    }
  }

  void on_message(NodeId, const Message& m) override {
    const auto* ack = std::get_if<EigerWriteAck>(&m.payload);
    SNOW_CHECK(ack != nullptr && pending_ && pending_->txn == m.txn);
    clock_ = std::max(clock_, ack->lamport) + 1;
    if (--pending_->await != 0) return;
    rec_.finish_write(pending_->txn, kInvalidTag, /*rounds=*/1);
    auto cb = std::move(pending_->cb);
    const TxnResult result{pending_->txn, /*is_read=*/false, {}};
    pending_.reset();
    cb(result);
  }

 private:
  struct Pending {
    TxnId txn{kInvalidTxn};
    std::size_t await{0};
    TxnCallback cb;
  };

  HistoryRecorder& rec_;
  Placement place_;
  std::uint64_t clock_ = 0;
  std::optional<Pending> pending_;
};

const ProtocolRegistration kRegisterEiger{
    ProtocolTraits{
        .name = "eiger",
        .summary = "§6: mini-Eiger logical-clock RO txns; S claim refuted by Fig. 5",
        .claims_strict_serializability = false,  // claimed by Eiger; §6 shows otherwise
        .advertises_strict_serializability = true,  // the NSDI'13 claim the fuzzer audits
        .provides_tags = false,
        .snow_s = false,
        .snow_n = true,
        .snow_o = false,  // up to two rounds
        .snow_w = true,
        .mwmr = true,
    },
    [](Runtime& rt, HistoryRecorder& rec, const SystemConfig& cfg, const BuildOptions&) {
      return build_eiger(rt, rec, cfg);
    }};

}  // namespace

std::unique_ptr<ProtocolSystem> build_eiger(Runtime& rt, HistoryRecorder& rec,
                                            const SystemConfig& cfg) {
  cfg.validate();
  const Placement place(cfg);
  rec.attach_runtime(&rt);
  for (std::size_t i = 0; i < place.num_servers(); ++i) {
    const NodeId id = rt.add_node(std::make_unique<ServerE>());
    SNOW_CHECK(id == i);
  }
  auto readers = add_clients<ReadClientApi>(
      rt, cfg.num_readers, [&] { return std::make_unique<ReaderE>(rec, place); });
  auto writers = add_clients<WriteClientApi>(
      rt, cfg.num_writers, [&] { return std::make_unique<WriterE>(rec, place); });
  return std::make_unique<ProtocolSystem>("eiger", cfg, rt, readers, writers);
}

}  // namespace snowkit
