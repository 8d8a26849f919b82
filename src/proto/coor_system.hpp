// The node layout every coordinator-based protocol shares (algo-b, algo-c,
// adaptive, occ-reads and the fault stubs wrapping them): SnowServer shards,
// the protocol's READ clients, CoorWriters and — with `replicas 2` — one
// WAL-backed backup per shard.
//
// Node ids, which scripted adversary schedules and fleet placement rely on:
//
//   [0, s)                    server shards (primaries), shard i = node i;
//   [s, s + r)                READ clients;
//   [s + r, s + r + w)        WRITE clients (CoorWriter);
//   [base, base + s)          backups, base = s + r + w (replicas 2 only).
//
// A protocol supplies only what the paper distinguishes it by: its READ
// client and the shape of its coordinator's tag array.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "proto/api.hpp"
#include "proto/coor_writer.hpp"
#include "proto/snow_server.hpp"

namespace snowkit {

class BuildOptions;

/// Options shared by the coordinator-based protocols.
struct CoorOptions {
  /// Which server shard acts as coordinator s* (index < server_count()).
  std::size_t coordinator{0};
  /// Watermark version GC: writers fan out finalize notices and readers
  /// piggyback the coordinator watermark, so Vals keeps only the per-object
  /// anchor plus versions above the watermark (proto/version_store.hpp).
  /// Off restores the paper's literal keep-everything Vals.
  bool gc_versions{true};
  /// 1 = the paper's failure-free servers; 2 = crash-tolerant shards: each
  /// server gets a WAL-backed backup replica, acks wait for replication, and
  /// the backup takes over on primary death (proto/replica.hpp).
  std::size_t replicas{1};
  /// Directory for per-node WAL files; empty = in-memory WALs (sim).
  std::string wal_dir;
  /// FAULT INJECTION ONLY: ack writers before the backup confirms.
  bool unsafe_ack{false};
  /// System name reported to the registry/checkers; fault-injection stubs
  /// that wrap a builder register under their own.
  std::string name;

  /// Reads the `coordinator`, `gc_versions`, `replicas`, `wal_dir` and
  /// `unsafe_ack` keys, keeping the current values as defaults.
  void parse(const BuildOptions& opts);
};

/// A READ client of a coordinator-based protocol: the state every such
/// reader keeps and the requests they all build the same way.
class CoorReader : public Node, public ReadClientApi {
 public:
  CoorReader(HistoryRecorder& rec, const Placement& place, std::size_t coor_shard)
      : rec_(rec), place_(place), coor_shard_(coor_shard), routes_(place.num_servers()) {}

  NodeId node_id() const override { return id(); }

 protected:
  /// Current node of the coordinator shard / of the shard hosting `obj`
  /// (TakeoverNotices re-route them through routes_).
  NodeId coordinator() const { return routes_.node_of(coor_shard_); }
  NodeId server_of(ObjectId obj) const { return routes_.node_of(place_.shard_of(obj)); }

  /// get-tag-arr naming `objs` as the READ's objects.
  static GetTagArrReq tag_arr_req(const std::vector<ObjectId>& objs) {
    return GetTagArrReq{object_set(objs)};
  }

  /// Pairs each of the READ's objects `objs` with its tag-array entry.  The
  /// coordinator sends entries (latest, history) only for the objects in the
  /// get-tag-arr `want`, in ascending object order, so entry i belongs
  /// to the i-th smallest object.  `objs` must be distinct.
  template <typename T>
  static std::map<ObjectId, T> by_object(const std::vector<ObjectId>& objs,
                                         const std::vector<T>& entries) {
    SNOW_CHECK_MSG(entries.size() == objs.size(), "tag array has " << entries.size()
                       << " entries for a READ of " << objs.size() << " objects");
    std::vector<ObjectId> sorted = objs;
    std::sort(sorted.begin(), sorted.end());
    std::map<ObjectId, T> out;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      out.emplace_hint(out.end(), sorted[i], entries[i]);
    }
    return out;
  }

  /// Deregisters READ `txn` from the coordinator's watermark accounting
  /// (fire-and-forget, keyed by sender, so it carries no txn).
  void send_read_done(TxnId txn) { send(coordinator(), Message{kInvalidTxn, ReadDoneReq{txn}}); }

  HistoryRecorder& rec_;
  Placement place_;
  std::size_t coor_shard_;
  ShardRoutes routes_;
};

/// Makes one READ client; `replicated` is true for replicas 2.
using ReaderFactory =
    std::function<std::unique_ptr<CoorReader>(const Placement& place, bool replicated)>;

struct CoorNodes {
  std::vector<CoorReader*> readers;
  std::vector<CoorWriter*> writers;
  std::vector<SnowServer*> coordinators;  ///< the coordinator shard: primary (+ backup).
};

/// Checks the coordinator range and replicas in {1, 2}, then adds the
/// servers, readers, writers and backups to `rt` in the layout above.
/// Throws std::invalid_argument on bad options.
CoorNodes add_coor_nodes(Runtime& rt, HistoryRecorder& rec, const SystemConfig& cfg,
                         const CoorOptions& opts, TagArrShape shape,
                         const ReaderFactory& make_reader, const ModeTrackerConfig& modes = {});

/// The assembled system; `Base` lets a protocol add its own accessors (the
/// adaptive counters).
template <typename Base = ProtocolSystem>
class CoorSystem : public Base {
 public:
  CoorSystem(std::string name, const SystemConfig& cfg, Runtime& rt, CoorNodes nodes)
      : Base(std::move(name), cfg, rt), nodes_(std::move(nodes)) {}

  std::size_t num_readers() const override { return nodes_.readers.size(); }
  std::size_t num_writers() const override { return nodes_.writers.size(); }
  ReadClientApi& reader(std::size_t i) override { return *nodes_.readers.at(i); }
  WriteClientApi& writer(std::size_t i) override { return *nodes_.writers.at(i); }

 protected:
  CoorNodes nodes_;
};

/// add_coor_nodes wrapped in a plain CoorSystem named opts.name.
std::unique_ptr<ProtocolSystem> build_coor_system(Runtime& rt, HistoryRecorder& rec,
                                                  const SystemConfig& cfg,
                                                  const CoorOptions& opts, TagArrShape shape,
                                                  const ReaderFactory& make_reader);

}  // namespace snowkit
