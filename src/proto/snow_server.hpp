// The server of Pseudocode 6, shared by every coordinator-based protocol:
// algo-b, algo-c, adaptive and occ-reads (and the fault stubs built on
// them).  The paper gives Algorithms B and C one server and distinguishes
// them only by their READ clients (Pseudocodes 5 and 7); snowkit keeps it
// that way.
//
// Every server stores one VersionStore (Vals) per hosted object; the
// coordinator s* additionally keeps the List (a CoorList) and answers
// update-coor and get-tag-arr.  Handlers are the union of the request
// payloads, so the payload type alone selects the behaviour:
//
//   write-val            insert into Vals, ack;
//   read-val (+batch)    one version under the requested key, non-blocking;
//                        found == false when the key is gone (a speculative
//                        occ key, or GC racing a failover) — readers that
//                        name watermark-protected keys check it;
//   read-vals (+batch)   the live version chain (<= |W|+1 with GC flowing);
//   finalize notices     watermark GC (proto/version_store.hpp);
//   update-coor          append to List, ack with the position;
//   get-tag-arr          register the READ, answer in the protocol's shape.
//
// The tag-array shape is the only per-protocol input, because all three
// answer the same GetTagArrReq (see TagArrShape).  The adaptive coordinator
// also runs the per-object write-rate tracker whose modes ride its tag
// arrays; that state is advisory — never replicated, never logged, reset on
// crash — because modes only shape messages, never the version a READ
// serves.
//
// With `replicas 2` the server embeds a Replicator (proto/replica.hpp):
// replication traffic is consumed first, a backup parks or redirects client
// traffic, state mutations ride the replicated log, and write and
// update-coor acks wait for the backup.  Reads are answered immediately
// from committed state, so N holds across failover.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>

#include "proto/api.hpp"
#include "proto/replica.hpp"
#include "proto/version_store.hpp"

namespace snowkit {

/// How the coordinator answers get-tag-arr.
enum class TagArrShape : std::uint8_t {
  kLatest,       ///< GetTagArrResp: t_r, watermark, latest[] (algo-b, occ-reads).
  kWithHistory,  ///< ... plus the live List history of each wanted object (algo-c).
  kModes,        ///< AdaptTagArrResp: latest[] plus the C-mode objects (adaptive).
};

/// Hysteresis band and decay of the adaptive coordinator's write-rate
/// tracker; the defaults live in AdaptiveOptions.
struct ModeTrackerConfig {
  double switch_up{0};
  double switch_down{0};
  TimeNs ewma_tau_ns{0};
};

struct SnowServerConfig {
  std::size_t num_objects{0};
  bool is_coordinator{false};
  bool gc{true};
  TagArrShape shape{TagArrShape::kLatest};
  ModeTrackerConfig modes;  ///< used by a kModes coordinator only.
};

class SnowServer final : public Node {
 public:
  explicit SnowServer(const SnowServerConfig& cfg,
                      std::optional<Replicator::Config> repl = std::nullopt,
                      std::unique_ptr<WalStorage> wal = nullptr);
  ~SnowServer() override;

  void on_start() override;
  bool supports_crash() const override { return repl_ != nullptr; }
  void on_crash() override;
  void on_message(NodeId from, const Message& m) override;

  /// Mode flips of an adaptive coordinator (0 on every other server).
  std::uint64_t switches() const;

 private:
  class ModeTracker;

  void update_coor(NodeId from, TxnId txn, const UpdateCoorReq& uc);
  void send_tag_arr(NodeId from, TxnId txn, const GetTagArrReq& req);

  SnowServerConfig cfg_;
  std::map<ObjectId, VersionStore> stores_;  ///< per hosted object.
  std::optional<CoorList> list_;             ///< coordinator only.
  std::unique_ptr<ModeTracker> modes_;       ///< adaptive coordinator only.
  std::unique_ptr<Replicator> repl_;         ///< replicas=2 only.
};

}  // namespace snowkit
