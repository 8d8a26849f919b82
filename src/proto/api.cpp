#include "proto/api.hpp"

#include <algorithm>
#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/assert.hpp"

namespace snowkit {

void SystemConfig::validate() const {
  if (num_objects == 0) {
    throw std::invalid_argument("SystemConfig: num_objects must be >= 1 (a system with no "
                                "objects has nothing to read or write)");
  }
  if (num_readers == 0 && num_writers == 0) {
    throw std::invalid_argument("SystemConfig: at least one client is required "
                                "(num_readers + num_writers >= 1)");
  }
  if (server_count() == 0) {
    throw std::invalid_argument("SystemConfig: num_servers must be >= 1 (use 0 for the "
                                "one-server-per-object default)");
  }
}

std::vector<ObjectId> Placement::objects_on(std::size_t shard) const {
  std::vector<ObjectId> out;
  for (std::size_t i = 0; i < num_objects_; ++i) {
    const auto obj = static_cast<ObjectId>(i);
    if (shard_of(obj) == shard) out.push_back(obj);
  }
  return out;
}

TxnRequest read_txn(std::vector<ObjectId> objs) {
  TxnRequest req;
  req.reads = std::move(objs);
  return req;
}

TxnRequest write_txn(std::vector<std::pair<ObjectId, Value>> writes) {
  TxnRequest req;
  req.writes = std::move(writes);
  return req;
}

// --- unified clients -----------------------------------------------------------

/// FIFO slot in front of one protocol client node (a reader or a writer).
/// The protocol clients enforce the paper's well-formedness rule — at most
/// one outstanding transaction per client — with a hard check; the slot
/// queues excess submissions instead of tripping it, which is exactly the
/// backlog behaviour an open-loop driver wants.
class ProtocolSystem::Slot {
 public:
  /// Exactly one of `reader` / `writer` is non-null.
  Slot(Runtime& rt, ReadClientApi* reader, WriteClientApi* writer)
      : rt_(rt), reader_(reader), writer_(writer) {}

  NodeId node() const { return reader_ != nullptr ? reader_->id() : writer_->id(); }

  void submit(TxnRequest req, TxnCallback cb) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (busy_) {
        queue_.push_back({std::move(req), std::move(cb)});
        return;
      }
      busy_ = true;
    }
    fire(std::move(req), std::move(cb));
  }

 private:
  struct Item {
    TxnRequest req;
    TxnCallback cb;
  };

  /// Invokes the transaction on the node's executor; the node's result is
  /// handed to `cb` as is.
  void fire(TxnRequest req, TxnCallback cb) {
    rt_.post(node(), [this, req = std::move(req), cb = std::move(cb)]() mutable {
      TxnCallback done = [this, cb = std::move(cb)](const TxnResult& r) { finish(r, cb); };
      if (reader_ != nullptr) {
        reader_->read(std::move(req.reads), std::move(done));
      } else {
        writer_->write(std::move(req.writes), std::move(done));
      }
    });
  }

  void finish(const TxnResult& result, const TxnCallback& cb) {
    // Release the slot BEFORE the callback runs so a closed-loop driver's
    // chained submit fires immediately instead of queueing behind itself.
    std::optional<Item> next;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (queue_.empty()) {
        busy_ = false;
      } else {
        next.emplace(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    if (cb) cb(result);
    if (next) fire(std::move(next->req), std::move(next->cb));
  }

  Runtime& rt_;
  ReadClientApi* reader_;
  WriteClientApi* writer_;
  std::mutex mu_;
  bool busy_{false};
  std::deque<Item> queue_;
};

class ProtocolSystem::Client final : public TxnClient {
 public:
  /// A null slot means the system has no clients of that kind.
  Client(const ProtocolSystem& sys, Slot* read_slot, Slot* write_slot)
      : sys_(sys), read_slot_(read_slot), write_slot_(write_slot) {}

  void submit(TxnRequest req, TxnCallback cb) override {
    SNOW_CHECK_MSG(req.reads.empty() != req.writes.empty(),
                   "TxnRequest must carry exactly one of a read-set or a write-set");
    Slot* slot = req.is_read() ? read_slot_ : write_slot_;
    SNOW_CHECK_MSG(slot != nullptr, "protocol system '" << sys_.name() << "' has no "
                   << (req.is_read() ? "read" : "write") << " clients for this request");
    slot->submit(std::move(req), std::move(cb));
  }

 private:
  const ProtocolSystem& sys_;
  Slot* read_slot_;
  Slot* write_slot_;
};

ProtocolSystem::ProtocolSystem(std::string name, const SystemConfig& cfg, Runtime& rt,
                               const std::vector<ReadClientApi*>& readers,
                               const std::vector<WriteClientApi*>& writers)
    : name_(std::move(name)), cfg_(cfg), placement_(cfg) {
  for (ReadClientApi* r : readers) read_slots_.push_back(std::make_unique<Slot>(rt, r, nullptr));
  for (WriteClientApi* w : writers) write_slots_.push_back(std::make_unique<Slot>(rt, nullptr, w));
  const std::size_t r = read_slots_.size();
  const std::size_t w = write_slots_.size();
  for (std::size_t c = 0; c < std::max(r, w); ++c) {
    clients_.push_back(std::make_unique<Client>(*this, r > 0 ? read_slots_[c % r].get() : nullptr,
                                                w > 0 ? write_slots_[c % w].get() : nullptr));
  }
}

ProtocolSystem::~ProtocolSystem() = default;

NodeId ProtocolSystem::reader_node(std::size_t i) const { return read_slots_.at(i)->node(); }

TxnClient& ProtocolSystem::client(std::size_t i) {
  SNOW_CHECK_MSG(i < clients_.size(), "client index " << i << " out of range (num_clients = "
                                                      << clients_.size() << ")");
  return *clients_[i];
}

std::vector<ObjectId> all_objects(std::size_t k) {
  std::vector<ObjectId> objs(k);
  for (std::size_t i = 0; i < k; ++i) objs[i] = static_cast<ObjectId>(i);
  return objs;
}

std::vector<std::pair<ObjectId, Value>> write_all(std::size_t k, Value base) {
  std::vector<std::pair<ObjectId, Value>> w;
  w.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    w.emplace_back(static_cast<ObjectId>(i), base + static_cast<Value>(i));
  }
  return w;
}

}  // namespace snowkit
