// Workload driver + history-derived run statistics.
//
// WorkloadDriver pushes a WorkloadSpec through a ProtocolSystem's unified
// TxnClient API on either substrate.  Three arrival disciplines:
//
//  * split closed loop (default): reader i chains ops_per_reader READs,
//    writer j chains ops_per_writer WRITEs — every client always has exactly
//    one transaction in flight (the paper's well-formedness condition);
//  * mixed closed loop: each unified client chains ops_per_client operations,
//    choosing READ vs WRITE per op with probability read_fraction;
//  * open loop: total_ops arrivals paced by runtime timers (virtual time on
//    SimRuntime, wall clock on ThreadRuntime/NetRuntime), READ vs WRITE by
//    read_fraction.  Arrivals beyond a busy protocol client queue inside
//    TxnClient — genuine open-loop backlog.
//
// Open-loop pacing tracks ABSOLUTE deadlines: arrival k is due at
// start + k * interval, the timer callback issues every overdue arrival
// (catch-up) and re-arms for the next deadline.  Posting the next timer
// relative to "after the previous callback ran" — the pre-fix behaviour —
// silently stretched the period by the callback latency, so the delivered
// rate under-shot the nominal rate and the sojourn histogram suffered
// coordinated omission.  Sojourn is measured from the INTENDED deadline,
// so a late arrival's queueing delay is charged to the system, not hidden.
//
// Engine mode (DriverOptions::traffic): arrivals are generated by a
// TrafficModel (workload/workload.hpp) instead of the legacy per-client
// OpStreams, and pacing is SHARDED across `arrival_shards` independent
// timer chains anchored on distinct locally-owned nodes — one process
// emulates ~10^6 logical clients as aggregate arrival processes (a logical
// client is a stream identity, never a thread).  Shard s paces at
// interval * S with a phase offset of s * interval, so the aggregate
// process keeps the nominal spacing.
//
// With SimRuntime, call start() and then sim.run_until_idle(); with
// ThreadRuntime, call start() then wait().
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>

#include "core/system.hpp"
#include "metrics/histogram.hpp"
#include "workload/workload.hpp"

namespace snowkit {

enum class ArrivalMode {
  kClosedLoop,  ///< next op issued from the previous op's completion.
  kOpenLoop,    ///< ops issued at a fixed rate regardless of completions.
};

struct DriverOptions {
  ArrivalMode mode{ArrivalMode::kClosedLoop};

  /// Closed loop only: route mixed READ/WRITE chains through the unified
  /// clients instead of the split reader/writer chains.
  bool mixed{false};
  /// Mixed closed loop: ops per unified client.
  std::size_t ops_per_client{0};

  /// Open loop: total operations across all clients.
  std::size_t total_ops{0};
  /// Open loop: fixed inter-arrival gap (sim ns / wall ns).  Engine mode
  /// treats this as the fallback when the TrafficModel's rate curve is empty.
  TimeNs arrival_interval_ns{100'000};

  /// Mixed + open loop: probability an op is a READ transaction.
  double read_fraction{0.9};

  /// Open loop, engine mode: generate arrivals from this TrafficModel
  /// (popularity, permuted ranks, span distributions, rate curve, logical
  /// clients) instead of the legacy per-client OpStreams.
  std::optional<TrafficModel> traffic;
  /// Engine mode: independent pacing shards (each an absolute-deadline
  /// timer chain on its own locally-owned anchor node).  1 = unsharded.
  std::size_t arrival_shards{1};

  /// Test/diagnostic seam: runs synchronously on the arrival timer chain
  /// after each arrival is submitted — a deliberately slow hook models a
  /// slow completion path without touching protocol code (the pacing
  /// regression test injects a sleep here).  Default: none.
  std::function<void()> after_arrival;

  /// First write value this driver hands out.  The checkers identify writers
  /// by value, so two drivers run SEQUENTIALLY against one system (e.g. a
  /// steady-state warmup phase before the measured phase) must carve out
  /// disjoint value ranges.
  std::uint64_t value_base{1};
};

class WorkloadDriver {
 public:
  WorkloadDriver(Runtime& rt, ProtocolSystem& sys, WorkloadSpec spec, DriverOptions opts = {});

  /// Posts the first operation of every chain (closed loop) or schedules the
  /// first arrival (open loop).
  void start();

  /// True once every submitted operation completed (safe from any thread).
  /// Once it returns true — or wait() returns — no executor touches the
  /// driver again, so the caller may destroy it.
  bool done() const;

  /// Blocks until done (for ThreadRuntime; do not use with SimRuntime).
  void wait();

  std::size_t total_ops() const { return total_ops_; }
  std::size_t completed_reads() const { return reads_done_.load(std::memory_order_acquire); }
  std::size_t completed_writes() const { return writes_done_.load(std::memory_order_acquire); }

  /// Open loop: churn support.  pause() stops issuing new arrivals (the
  /// timer chains idle-poll; deadlines keep accruing, so the post-resume
  /// catch-up burst charges the outage to sojourn honestly); resume()
  /// re-opens the tap.  in_flight() is arrivals issued minus completions —
  /// a churn controller drains it to zero before dropping a link so no
  /// acknowledged transaction is ever cut mid-wire.
  void pause() { paused_.store(true, std::memory_order_release); }
  void resume() { paused_.store(false, std::memory_order_release); }
  std::size_t in_flight() const;

  /// Open loop: arrivals actually issued so far, and the delivered arrival
  /// rate over the issuing window (ops/s; wall clock on threaded runtimes,
  /// virtual on SimRuntime).  The coordinated-omission scoreboard: a healthy
  /// paced run reports within a few percent of the nominal rate.
  std::size_t arrivals_issued() const {
    return arrivals_issued_.load(std::memory_order_acquire);
  }
  double achieved_arrival_rate() const;

  /// Client-perceived latency: arrival (intended deadline) to completion,
  /// INCLUDING any open-loop backlog queueing inside TxnClient.  History
  /// latencies measure only protocol invocation to response, so under
  /// overload this is the honest number.  Recorded for open-loop runs only
  /// (closed loops have no backlog and skip the bookkeeping); empty
  /// otherwise.
  LatencySummary sojourn_latency() const;

 private:
  struct EngineShard {
    NodeId anchor{0};          ///< locally-owned node whose executor paces this shard.
    TimeNs next_deadline{0};   ///< absolute due time of the next arrival.
    std::size_t arrivals_left{0};
    std::size_t next_client{0};  ///< round-robin cursor within [client_lo, client_hi).
    std::size_t client_lo{0};
    std::size_t client_hi{0};    ///< protocol client slots this shard submits on.
    std::unique_ptr<TrafficShard> traffic;
  };

  void issue_read_chain(std::size_t reader, std::size_t remaining);
  void issue_write_chain(std::size_t writer, std::size_t remaining);
  void issue_mixed_chain(std::size_t client, std::size_t remaining);
  void schedule_arrival();
  void arrival_tick();
  void engine_schedule(std::size_t shard);
  void engine_tick(std::size_t shard);
  void submit_one(std::size_t client, bool is_read, TxnCallback cb);
  void submit_arrival(std::size_t client, bool is_read, TimeNs deadline);
  void submit_engine_arrival(EngineShard& sh, TimeNs deadline);
  void record_sojourn(TimeNs deadline);
  void note_arrival_issued();
  TxnRequest next_request(std::size_t client, bool is_read);
  void op_finished(bool was_read);

  Runtime& rt_;
  ProtocolSystem& sys_;
  WorkloadSpec spec_;
  DriverOptions opts_;
  std::vector<OpStream> reader_streams_;  ///< split mode: per reader.
  std::vector<OpStream> writer_streams_;  ///< split mode: per writer.
  std::vector<OpStream> client_streams_;  ///< mixed/open: per unified client.
  /// READ/WRITE choice.  Open loop uses coin_ (single-threaded timer chain);
  /// mixed closed loop uses one coin per client, since chains advance on
  /// their own node executors concurrently under ThreadRuntime.
  Xoshiro256 coin_;
  std::vector<Xoshiro256> client_coins_;
  std::size_t total_ops_{0};
  NodeId timer_node_{0};          ///< open-loop anchor: first locally-owned node.
  std::size_t arrivals_left_{0};  ///< open loop; touched only on the timer chain.
  std::size_t next_client_{0};    ///< open loop round-robin; timer chain only.
  TimeNs next_deadline_{0};       ///< legacy open loop: absolute due time; timer chain only.
  std::vector<EngineShard> shards_;  ///< engine mode only.
  std::atomic<bool> paused_{false};
  std::atomic<std::size_t> arrivals_issued_{0};
  TimeNs start_ns_{0};                      ///< set once in start().
  std::atomic<TimeNs> last_arrival_ns_{0};  ///< max issuance time across shards.
  std::atomic<std::size_t> remaining_ops_{0};
  std::atomic<std::size_t> reads_done_{0};
  std::atomic<std::size_t> writes_done_{0};
  std::atomic<std::uint64_t> next_value_{1};
  mutable std::mutex sojourn_mu_;
  Histogram sojourn_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool finished_{false};  ///< guarded by mu_; set by the last op_finished as it notifies.
};

/// Latency summary over the completed READ (or WRITE) transactions of a
/// history, using recorded invoke/respond timestamps.
LatencySummary summarize_latency(const History& h, bool reads);

/// Max client-reported rounds over completed READs.
int max_read_rounds(const History& h);

/// Max versions in any single server response over completed READs.
int max_read_versions(const History& h);

}  // namespace snowkit
