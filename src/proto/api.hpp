// Public client API shared by all protocols.
//
// Each protocol builder (proto/algo_a, algo_b, algo_c, adaptive, eiger,
// blocking, simple, naive, occ) adds its nodes to a Runtime according to a
// SystemConfig: a server fleet (by default one server per object, matching
// the paper's model, but optionally fewer servers with objects sharded
// across them via an ObjectPlacement policy), its READ client nodes and its
// WRITE client nodes.  It hands the reader and writer lists to
// ProtocolSystem, which puts a FIFO slot in front of each.
//
// Drivers, tests and demos invoke transactions only through
// ProtocolSystem::client(i): TxnClient::submit takes a TxnRequest carrying
// either a read-set or a write-set.  Completion is delivered via callback on
// the protocol client's executor and recorded in the shared HistoryRecorder.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "history/history.hpp"
#include "runtime/runtime.hpp"

namespace snowkit {

// --- system configuration & object placement --------------------------------

/// How the k objects are distributed over the server fleet.
enum class PlacementKind : std::uint8_t {
  kHash,   ///< object -> server via a fixed 64-bit mix (spreads hot ranges).
  kRange,  ///< contiguous object ranges per server (locality-friendly).
};

/// Topology + placement for building a protocol instance.  The first three
/// fields are ordered so `{k, readers, writers}` aggregate initialization
/// works.
struct SystemConfig {
  std::size_t num_objects{2};
  std::size_t num_readers{1};
  std::size_t num_writers{1};
  /// Server-fleet size.  0 (default) means one server per object — the
  /// paper's model.  Any other value shards the objects over that many
  /// servers according to `placement`.
  std::size_t num_servers{0};
  PlacementKind placement{PlacementKind::kHash};

  std::size_t server_count() const { return num_servers == 0 ? num_objects : num_servers; }

  /// Throws std::invalid_argument with a precise message on nonsense configs
  /// (no objects, no clients, no servers) instead of letting the error
  /// surface as downstream UB in OpStream / coordinator indexing.
  void validate() const;
};

/// The resolved object->server map of a SystemConfig.  Servers always occupy
/// node ids [0, num_servers) in registration order, so the map doubles as an
/// object->NodeId map.
class Placement {
 public:
  Placement() = default;
  explicit Placement(const SystemConfig& cfg)
      : num_objects_(cfg.num_objects), num_servers_(cfg.server_count()), kind_(cfg.placement) {}

  std::size_t num_objects() const { return num_objects_; }
  std::size_t num_servers() const { return num_servers_; }
  PlacementKind kind() const { return kind_; }

  /// Which server shard owns `obj`.  With one server per object (the paper
  /// model, num_servers == num_objects) this is the identity map — object i
  /// lives on server i — which scripted adversary schedules rely on.
  std::size_t shard_of(ObjectId obj) const {
    if (num_servers_ == num_objects_) return static_cast<std::size_t>(obj);
    if (kind_ == PlacementKind::kRange) {
      return static_cast<std::size_t>(obj) * num_servers_ / num_objects_;
    }
    // SplitMix64 is deterministic across platforms and runs.
    return static_cast<std::size_t>(SplitMix64(obj).next() % num_servers_);
  }

  /// The node hosting `obj` (servers are nodes [0, num_servers)).
  NodeId server_node(ObjectId obj) const { return static_cast<NodeId>(shard_of(obj)); }

  /// All objects placed on server shard `s` (ascending).
  std::vector<ObjectId> objects_on(std::size_t shard) const;

 private:
  std::size_t num_objects_{0};
  std::size_t num_servers_{0};
  PlacementKind kind_{PlacementKind::kHash};
};

// --- transaction requests & results ------------------------------------------

/// A transaction request: exactly one of `reads` / `writes` is non-empty
/// (the paper's model has READ transactions and WRITE transactions, never
/// mixed read-write transactions).
struct TxnRequest {
  std::vector<ObjectId> reads;
  std::vector<std::pair<ObjectId, Value>> writes;

  bool is_read() const { return !reads.empty(); }
};

/// Builds a READ-transaction request over `objs`.
TxnRequest read_txn(std::vector<ObjectId> objs);
/// Builds a WRITE-transaction request over `writes`.
TxnRequest write_txn(std::vector<std::pair<ObjectId, Value>> writes);

struct TxnResult {
  TxnId txn{kInvalidTxn};
  bool is_read{false};
  /// READs: the (object, value) pairs returned.  WRITEs: empty.
  std::vector<std::pair<ObjectId, Value>> values;
};

using TxnCallback = std::function<void(const TxnResult&)>;

/// Unified transaction client: submit READ or WRITE transactions and get the
/// completion on the owning node's executor.  Safe to call from any thread;
/// requests beyond the underlying protocol client's one-outstanding-txn
/// budget are queued and drained in FIFO order, which is what open-loop
/// drivers need.
class TxnClient {
 public:
  virtual ~TxnClient() = default;

  virtual void submit(TxnRequest req, TxnCallback cb) = 0;
};

// --- protocol client nodes -----------------------------------------------------

/// A protocol's READ client node: executes only READ transactions (paper §2).
/// ProtocolSystem drives it: read() runs on the node's executor with at most
/// one READ outstanding (well-formedness), and completes through `cb` with
/// `is_read` set and one (object, value) pair per object read.
class ReadClientApi : public Node {
 public:
  virtual void read(std::vector<ObjectId> objs, TxnCallback cb) = 0;
};

/// A protocol's WRITE client node: executes only WRITE transactions, under
/// the same contract as ReadClientApi; its result carries no values.
class WriteClientApi : public Node {
 public:
  virtual void write(std::vector<std::pair<ObjectId, Value>> writes, TxnCallback cb) = 0;
};

/// Adds `n` nodes made by `make()` to `rt`, in order, and returns them as
/// `Api*` for the ProtocolSystem constructor.
template <typename Api, typename Make>
std::vector<Api*> add_clients(Runtime& rt, std::size_t n, const Make& make) {
  std::vector<Api*> out;
  for (std::size_t i = 0; i < n; ++i) {
    auto node = make();
    out.push_back(node.get());
    rt.add_node(std::move(node));
  }
  return out;
}

// --- assembled systems --------------------------------------------------------

/// An assembled protocol instance on some runtime.  A builder adds its
/// servers and client nodes to the runtime and hands the READ and WRITE
/// client nodes to this constructor.  The system owns the name, config and
/// placement (so protocols share one object->server map) and the unified
/// clients, which it builds here, once.  Drivers use only client(i).
class ProtocolSystem {
 public:
  ProtocolSystem(std::string name, const SystemConfig& cfg, Runtime& rt,
                 const std::vector<ReadClientApi*>& readers,
                 const std::vector<WriteClientApi*>& writers);
  virtual ~ProtocolSystem();

  ProtocolSystem(const ProtocolSystem&) = delete;
  ProtocolSystem& operator=(const ProtocolSystem&) = delete;

  const std::string& name() const { return name_; }
  const SystemConfig& config() const { return cfg_; }
  const Placement& placement() const { return placement_; }

  std::size_t num_objects() const { return cfg_.num_objects; }
  std::size_t num_servers() const { return placement_.num_servers(); }
  NodeId server_node(ObjectId obj) const { return placement_.server_node(obj); }

  std::size_t num_readers() const { return read_slots_.size(); }
  std::size_t num_writers() const { return write_slots_.size(); }
  /// Node id of READ client `i`, for scripted schedules that steer its
  /// traffic.
  NodeId reader_node(std::size_t i) const;

  /// Number of unified clients: max(readers, writers).  Client i routes
  /// READs through reader (i mod R) and WRITEs through writer (i mod W),
  /// queuing per protocol client so concurrent submissions never violate
  /// the one-outstanding-transaction well-formedness rule.
  std::size_t num_clients() const { return clients_.size(); }
  TxnClient& client(std::size_t i);

 private:
  class Slot;
  class Client;

  std::string name_;
  SystemConfig cfg_;
  Placement placement_;
  std::vector<std::unique_ptr<Slot>> read_slots_;
  std::vector<std::unique_ptr<Slot>> write_slots_;
  std::vector<std::unique_ptr<Client>> clients_;
};

/// All object ids [0, k).
std::vector<ObjectId> all_objects(std::size_t k);

/// Builds the (object -> value) list writing `base + i` to each object; used
/// by tests and demos to give each WRITE a distinguishable payload.
std::vector<std::pair<ObjectId, Value>> write_all(std::size_t k, Value base);

}  // namespace snowkit
