#include "proto/blocking/blocking.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <optional>

#include "common/assert.hpp"
#include "core/registry.hpp"

namespace snowkit {
namespace {

/// Lock-manager server.  One independent lock table entry per hosted object;
/// grants are FIFO per object: a request waits iff an earlier conflicting
/// request holds or awaits that object's lock, so writers are never starved
/// by a stream of readers.
class ServerL final : public Node {
 public:
  void on_message(NodeId from, const Message& m) override {
    if (const auto* lr = std::get_if<LockReq>(&m.payload)) {
      LockState& ls = locks_[lr->obj];
      ls.waiters.push_back(Waiter{from, m.txn, lr->exclusive});
      pump(lr->obj, ls);
      return;
    }
    if (const auto* wu = std::get_if<WriteUnlockReq>(&m.payload)) {
      LockState& ls = locks_[wu->obj];
      SNOW_CHECK_MSG(ls.exclusive_held, "write-unlock without exclusive lock");
      ls.value = wu->value;
      ls.exclusive_held = false;
      send(from, Message{m.txn, UnlockAck{wu->obj}});
      pump(wu->obj, ls);
      return;
    }
    if (const auto* u = std::get_if<UnlockReq>(&m.payload)) {
      LockState& ls = locks_[u->obj];
      SNOW_CHECK_MSG(ls.shared_count > 0, "shared unlock without shared lock");
      --ls.shared_count;
      pump(u->obj, ls);
      return;
    }
    SNOW_UNREACHABLE("blocking server got unexpected payload");
  }

 private:
  struct Waiter {
    NodeId client{kInvalidNode};
    TxnId txn{kInvalidTxn};
    bool exclusive{false};
  };

  struct LockState {
    Value value = kInitialValue;
    bool exclusive_held = false;
    int shared_count = 0;
    std::deque<Waiter> waiters;
  };

  void pump(ObjectId obj, LockState& ls) {
    while (!ls.waiters.empty()) {
      const Waiter& w = ls.waiters.front();
      if (w.exclusive) {
        if (ls.exclusive_held || ls.shared_count > 0) break;
        ls.exclusive_held = true;
      } else {
        if (ls.exclusive_held) break;
        ++ls.shared_count;
      }
      send(w.client, Message{w.txn, LockGrant{obj, ls.value}});
      ls.waiters.pop_front();
    }
  }

  std::map<ObjectId, LockState> locks_;
};

class ReaderL final : public ReadClientApi {
 public:
  ReaderL(HistoryRecorder& rec, const Placement& place) : rec_(rec), place_(place) {}

  void read(std::vector<ObjectId> objs, TxnCallback cb) override {
    SNOW_CHECK_MSG(!pending_, "reader " << id() << " already has a READ in flight");
    SNOW_CHECK(!objs.empty());
    std::sort(objs.begin(), objs.end());  // lock-ordering discipline
    const TxnId txn = rec_.begin_read(id(), objs);
    pending_.emplace();
    pending_->txn = txn;
    pending_->objs = std::move(objs);
    pending_->cb = std::move(cb);
    request_next_lock();
  }

  void on_message(NodeId, const Message& m) override {
    const auto* g = std::get_if<LockGrant>(&m.payload);
    SNOW_CHECK(g != nullptr && pending_ && pending_->txn == m.txn);
    pending_->values.emplace_back(g->obj, g->value);
    if (pending_->values.size() < pending_->objs.size()) {
      request_next_lock();
      return;
    }
    // All shared locks held: this is the serialization point.  Release and
    // respond; releases need no acks.
    for (ObjectId obj : pending_->objs) {
      send(place_.server_node(obj), Message{pending_->txn, UnlockReq{obj}});
    }
    const TxnResult result{pending_->txn, /*is_read=*/true, pending_->values};
    rec_.finish_read(pending_->txn, pending_->values, kInvalidTag,
                     static_cast<int>(pending_->objs.size()), /*max_versions=*/1);
    auto cb = std::move(pending_->cb);
    pending_.reset();
    cb(result);
  }

 private:
  struct Pending {
    TxnId txn{kInvalidTxn};
    std::vector<ObjectId> objs;
    std::vector<std::pair<ObjectId, Value>> values;
    TxnCallback cb;
  };

  void request_next_lock() {
    const ObjectId obj = pending_->objs[pending_->values.size()];
    send(place_.server_node(obj), Message{pending_->txn, LockReq{obj, /*exclusive=*/false}});
  }

  HistoryRecorder& rec_;
  Placement place_;
  std::optional<Pending> pending_;
};

class WriterL final : public WriteClientApi {
 public:
  WriterL(HistoryRecorder& rec, const Placement& place) : rec_(rec), place_(place) {}

  void write(std::vector<std::pair<ObjectId, Value>> writes, TxnCallback cb) override {
    SNOW_CHECK_MSG(!pending_, "writer " << id() << " already has a WRITE in flight");
    SNOW_CHECK(!writes.empty());
    std::sort(writes.begin(), writes.end());
    const TxnId txn = rec_.begin_write(id(), writes);
    pending_.emplace();
    pending_->txn = txn;
    pending_->writes = std::move(writes);
    pending_->cb = std::move(cb);
    request_next_lock();
  }

  void on_message(NodeId, const Message& m) override {
    if (std::holds_alternative<LockGrant>(m.payload)) {
      SNOW_CHECK(pending_ && pending_->txn == m.txn);
      ++pending_->locks_held;
      if (pending_->locks_held < pending_->writes.size()) {
        request_next_lock();
        return;
      }
      // All exclusive locks held: apply and release in one parallel round.
      for (const auto& [obj, value] : pending_->writes) {
        send(place_.server_node(obj), Message{pending_->txn, WriteUnlockReq{obj, value}});
      }
      return;
    }
    if (std::holds_alternative<UnlockAck>(m.payload)) {
      SNOW_CHECK(pending_ && pending_->txn == m.txn);
      if (++pending_->apply_acks < pending_->writes.size()) return;
      rec_.finish_write(pending_->txn, kInvalidTag,
                        static_cast<int>(pending_->writes.size()) + 1);
      auto cb = std::move(pending_->cb);
      const TxnResult result{pending_->txn, /*is_read=*/false, {}};
      pending_.reset();
      cb(result);
      return;
    }
    SNOW_UNREACHABLE("blocking writer got unexpected payload");
  }

 private:
  struct Pending {
    TxnId txn{kInvalidTxn};
    std::vector<std::pair<ObjectId, Value>> writes;
    std::size_t locks_held{0};
    std::size_t apply_acks{0};
    TxnCallback cb;
  };

  void request_next_lock() {
    const ObjectId obj = pending_->writes[pending_->locks_held].first;
    send(place_.server_node(obj), Message{pending_->txn, LockReq{obj, /*exclusive=*/true}});
  }

  HistoryRecorder& rec_;
  Placement place_;
  std::optional<Pending> pending_;
};

const ProtocolRegistration kRegisterBlocking{
    ProtocolTraits{
        .name = "blocking-2pl",
        .summary = "conservative 2PL comparator: strong guarantees, blocking multi-round reads",
        .claims_strict_serializability = true,
        .provides_tags = false,
        .snow_s = true,
        .snow_n = false,  // reads queue behind writers by design
        .snow_o = false,
        .snow_w = true,
        .mwmr = true,
    },
    [](Runtime& rt, HistoryRecorder& rec, const SystemConfig& cfg, const BuildOptions&) {
      return build_blocking(rt, rec, cfg);
    }};

}  // namespace

std::unique_ptr<ProtocolSystem> build_blocking(Runtime& rt, HistoryRecorder& rec,
                                               const SystemConfig& cfg) {
  cfg.validate();
  const Placement place(cfg);
  rec.attach_runtime(&rt);
  for (std::size_t i = 0; i < place.num_servers(); ++i) {
    const NodeId id = rt.add_node(std::make_unique<ServerL>());
    SNOW_CHECK(id == i);
  }
  auto readers = add_clients<ReadClientApi>(
      rt, cfg.num_readers, [&] { return std::make_unique<ReaderL>(rec, place); });
  auto writers = add_clients<WriteClientApi>(
      rt, cfg.num_writers, [&] { return std::make_unique<WriterL>(rec, place); });
  return std::make_unique<ProtocolSystem>("blocking-2pl", cfg, rt, readers, writers);
}

}  // namespace snowkit
